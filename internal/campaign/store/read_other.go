//go:build !unix

package store

import "os"

// readFile returns the contents of the file at path; b is unused here.
func readFile(path string, b []byte) ([]byte, error) { return os.ReadFile(path) }
