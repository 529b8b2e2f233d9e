//go:build !unix

package shm

import "os"

const mmapSupported = false

func mapFile(f *os.File, size int) ([]byte, error) { return nil, ErrUnavailable }

func unmapFile(b []byte) error { return nil }

func pidAlive(pid uint32) bool { return false }

func CreateQueue() (*os.File, error) { return nil, ErrUnavailable }

func OpenQueue(path string) (*os.File, error) { return nil, ErrUnavailable }
