//go:build unix

package shm

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
)

// The frame queue of one shm link is a named FIFO: the kernel's pipe
// buffer is the descriptor ring and the runtime poller is the wakeup,
// so a descriptor hop costs a pipe write instead of a trip through the
// loopback TCP stack. The subscriber creates the FIFO and opens its
// read end before it offers shm, the publisher opens the write end
// while it answers, and the subscriber unlinks the name as soon as the
// answer is in — from then on the queue is reachable only through the
// two descriptors and vanishes with them.

var queueSeq atomic.Uint64

// CreateQueue makes a FIFO with a private name under Dir() and returns
// its read end, opened non-blocking so the open does not wait for a
// writer and reads park in the poller. Name() is the path to offer; the
// caller removes it once the publisher has answered, and on every path
// where it never will.
func CreateQueue() (*os.File, error) {
	for {
		path := fmt.Sprintf("%s%crossf-%d-q%d", Dir(), os.PathSeparator, os.Getpid(), queueSeq.Add(1))
		err := syscall.Mkfifo(path, 0o600)
		if err == syscall.EEXIST {
			continue // left behind by a dead process that had this pid
		}
		if err != nil {
			return nil, fmt.Errorf("shm: mkfifo %s: %w", path, err)
		}
		f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
		if err != nil {
			os.Remove(path)
			return nil, err
		}
		return f, nil
	}
}

// OpenQueue opens the write end of the queue a subscriber offered. The
// path is the peer's word: the open cannot block (the reader already
// exists, else ENXIO) and anything that is not a FIFO is refused.
func OpenQueue(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, err
	}
	if fi, err := f.Stat(); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		f.Close()
		return nil, fmt.Errorf("shm: queue %s is not a FIFO", path)
	}
	return f, nil
}
