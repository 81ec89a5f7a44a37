package serve

import (
	"context"
	"sync"
)

// resultStream is one job's resumable JSONL result stream: an
// append-only list of encoded record lines plus a finished flag. The
// sweep's Options.Stream hook appends lines as jobs complete in
// submission order; any number of HTTP readers follow the stream
// concurrently, each resuming from a line offset, so a client that
// drops mid-sweep reconnects with ?offset=N and misses nothing. Lines
// are appended exactly once and never mutated, which is what makes a
// resumed read byte-identical to an uninterrupted one.
type resultStream struct {
	mu    sync.Mutex
	cond  *sync.Cond
	lines [][]byte // guarded by mu
	fin   bool     // guarded by mu
}

func newResultStream() *resultStream {
	st := &resultStream{}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// finishedStream returns a finished stream over lines, which it shares
// with the caller (a cache hit shares its entry's lines); a finished
// stream is never appended to, so the lines are never written.
func finishedStream(lines [][]byte) *resultStream {
	st := &resultStream{lines: lines, fin: true}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// append adds one encoded record line (including its trailing newline)
// and wakes waiting readers.
func (st *resultStream) append(line []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lines = append(st.lines, line)
	st.cond.Broadcast()
}

// finish marks the stream complete; readers drain and return.
func (st *resultStream) finish() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.fin = true
	st.cond.Broadcast()
}

// wake kicks waiting readers so they can re-check their context; wired
// to context.AfterFunc by wait.
func (st *resultStream) wake() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cond.Broadcast()
}

// wait blocks until the stream holds more than offset lines, the
// stream finishes, or ctx is done. It returns the lines from offset
// onward (nil on cancellation) and whether the stream is finished.
// Returned line slices are shared and must be treated as read-only.
func (st *resultStream) wait(ctx context.Context, offset int) (lines [][]byte, fin bool) {
	stop := context.AfterFunc(ctx, st.wake)
	defer stop()
	st.mu.Lock()
	defer st.mu.Unlock()
	for len(st.lines) <= offset && !st.fin && ctx.Err() == nil {
		st.cond.Wait()
	}
	if len(st.lines) > offset {
		lines = st.lines[offset:]
	}
	return lines, st.fin
}

// snapshotLen returns the number of lines currently available.
func (st *resultStream) snapshotLen() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.lines)
}

// all returns every line of a finished stream (the cache-store path);
// for an unfinished stream it returns what is there so far.
func (st *resultStream) all() [][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lines[:len(st.lines):len(st.lines)]
}
