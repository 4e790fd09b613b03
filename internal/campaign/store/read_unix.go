//go:build unix

package store

import (
	"io/fs"
	"slices"
	"syscall"
)

// readFile appends the contents of the file at path to b. It reads through
// the raw descriptor: os.ReadFile's *os.File costs a poller registration,
// nonblocking-mode fcntl calls, a finalizer and an fstat per call, and
// Store.Get opens one file per item. A missing file is fs.ErrNotExist.
func readFile(path string, b []byte) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return b, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(len(b), 2048))
		}
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		if n > 0 {
			b = b[:len(b)+n]
		}
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return b, &fs.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return b, nil
		}
	}
}
