// Fixture for the errflow analyzer, shaped like the campaign daemon's
// HTTP surface: dropped error results and overwritten-unchecked error
// variables, with the two sanctioned exemptions (response writes,
// cleanup on an error path).
package service

import (
	"errors"
	"fmt"
	"net/http"
	"os"
)

func post() error       { return nil }
func cleanup() error    { return nil }
func two() (int, error) { return 0, nil }
func consume(err error) { _ = err }

// --- rule 1: dropped error results ---

func dropped() {
	post() // want `error result of post is dropped`
}

func handled() error {
	if err := post(); err != nil {
		return err
	}
	return nil
}

func deliberatelyIgnored() {
	_ = post() // clean: explicit discard
}

func handleStatus(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n"))  // clean: response already in flight
	fmt.Fprintf(w, "done\n") // clean: writer argument
}

func cleanupOnErrorPath(f *os.File) error {
	if err := post(); err != nil {
		f.Close() // clean: best-effort cleanup, the block returns err
		return err
	}
	return nil
}

func cleanupOnHappyPath(f *os.File) error {
	f.Close() // want `error result of f\.Close is dropped`
	return nil
}

// --- rule 2: overwritten before checked (must-analysis) ---

func overwritten() error {
	err := post()
	err = cleanup() // want `err overwritten before the error assigned on line \d+ is checked`
	return err
}

func checkedBetween() error {
	err := post()
	if err != nil {
		return err
	}
	err = cleanup()
	return err
}

func checkedOnSomePath(b bool) error {
	err := post()
	if b {
		consume(err)
	}
	err = cleanup() // clean: one path read it, so this is not a must-drop
	return err
}

func uncheckedOnAllPaths(b bool) error {
	err := post()
	if b {
		err = cleanup() // want `err overwritten before the error assigned on line \d+ is checked`
	} else {
		err = post() // want `err overwritten before the error assigned on line \d+ is checked`
	}
	return err
}

func redeclared() error {
	n, err := two()
	_ = n
	m, err := two() // want `err overwritten before the error assigned on line \d+ is checked`
	_ = m
	return err
}

var errLimit = errors.New("limit")

func taglessSwitchChecks() error {
	n, err := two()
	switch {
	case errors.Is(err, errLimit):
		return fmt.Errorf("too big: %w", err)
	case err != nil:
		return err
	}
	_ = n
	m, err := two() // clean: every path past the switch evaluated the cases reading err
	_ = m
	return err
}

func taglessSwitchIgnores(b bool) error {
	err := post()
	switch {
	case b:
		consume(err)
	}
	err = cleanup() // clean: the matching path read it
	return err
}

func taglessSwitchNeverReads(b bool) error {
	err := post()
	switch {
	case b:
		return nil
	}
	err = cleanup() // want `err overwritten before the error assigned on line \d+ is checked`
	return err
}
