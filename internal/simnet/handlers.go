package simnet

import "sync/atomic"

// maxParkedHandlers bounds the handler goroutines parked between
// connections. A study dials a few endpoints at a time, so a small fixed
// pool absorbs nearly every connection; a burst beyond it spawns
// goroutines that exit when they finish. The pool is process-wide, like a
// sync.Pool, because a Network has no end of life that could stop its own
// goroutines: the bound is all that ever stays parked, and a parked
// goroutine holds no reference to the Network or handler it last served.
const maxParkedHandlers = 32

// handlerJob is one accepted connection waiting for a handler goroutine.
type handlerJob struct {
	h    Handler
	conn *Conn
}

var (
	// handoff passes a job to a parked handler goroutine. It is unbuffered,
	// so a send succeeds only when a goroutine is already waiting: a job
	// never queues behind a busy (or forever-blocked) handler.
	handoff = make(chan handlerJob)
	// parked counts the goroutines committed to waiting on handoff; it
	// never exceeds maxParkedHandlers.
	parked atomic.Int32
)

// serveConn runs h on conn without blocking the dialer: on a parked
// handler goroutine when one is idle, on a new goroutine otherwise.
func serveConn(h Handler, conn *Conn) {
	select {
	case handoff <- handlerJob{h, conn}:
	default:
		go handlerLoop(h, conn)
	}
}

// handlerLoop serves connections until parking would exceed the bound. A
// goroutine that parks keeps the stack its handlers grew, so the next
// connection does not pay to grow a fresh one.
func handlerLoop(h Handler, conn *Conn) {
	for {
		h(conn)
		conn.Close()
		h, conn = nil, nil // a parked goroutine must not keep a world alive
		if !park() {
			return
		}
		j := <-handoff
		parked.Add(-1)
		h, conn = j.h, j.conn
	}
}

// park reserves a parking slot, reporting false when all are taken.
func park() bool {
	for {
		n := parked.Load()
		if n >= maxParkedHandlers {
			return false
		}
		if parked.CompareAndSwap(n, n+1) {
			return true
		}
	}
}
