package simnet

import (
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// pipeBuffer is one direction of an in-memory connection: a byte queue with
// blocking reads, close semantics and deadline support. Reads consume from
// buf[off:]; once drained the queue rewinds to buf[:0], so later writes
// reuse the backing array instead of growing a fresh one.
type pipeBuffer struct {
	mu       sync.Mutex
	cond     sync.Cond // L is &mu
	buf      []byte
	off      int   // read offset into buf
	closed   bool  // no more writes will arrive
	readErr  error // error overriding normal reads (e.g. reset)
	limited  bool  // deliver at most `limit` more bytes, then EOF
	limit    int
	deadline time.Time
	timer    *time.Timer
}

func (b *pipeBuffer) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrConnClosed
	}
	if b.limited {
		// Deliver only what the truncation budget allows; the writer does
		// not notice, as with bytes lost after a mid-flight teardown.
		keep := p
		if len(keep) > b.limit {
			keep = keep[:b.limit]
		}
		b.buf = append(b.buf, keep...)
		b.limit -= len(keep)
		if b.limit == 0 {
			b.closed = true
		}
		b.cond.Broadcast()
		return len(p), nil
	}
	b.buf = append(b.buf, p...)
	b.cond.Broadcast()
	return len(p), nil
}

func (b *pipeBuffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.readErr != nil {
			return 0, b.readErr
		}
		if b.off < len(b.buf) {
			n := copy(p, b.buf[b.off:])
			b.off += n
			if b.off == len(b.buf) {
				b.buf, b.off = b.buf[:0], 0
			}
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		//lint:allow walltime net.Conn deadlines are wall-clock by contract; scans run on the virtual clock and never set one
		if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		b.cond.Wait()
	}
}

func (b *pipeBuffer) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

// truncateAfter caps the bytes this buffer will ever deliver from now on:
// n more bytes (beyond anything already buffered), then EOF.
func (b *pipeBuffer) truncateAfter(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.limited = true
	b.limit = n
	if b.limit <= 0 {
		b.limit = 0
		b.closed = true
	}
	b.cond.Broadcast()
}

// fail makes all pending and future reads return err (connection reset).
func (b *pipeBuffer) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.readErr = err
	b.cond.Broadcast()
}

func (b *pipeBuffer) setDeadline(t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.deadline = t
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		b.timer = time.AfterFunc(d, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
	}
	b.cond.Broadcast()
}

// Conn is an in-memory full-duplex connection implementing net.Conn.
type Conn struct {
	readBuf  *pipeBuffer // data written by the peer
	writeBuf *pipeBuffer // data we write for the peer
	local    net.Addr
	remote   net.Addr

	closeOnce sync.Once
}

// pipe is everything one connection needs, in a single allocation: both
// directions' buffers, both ends, and (for dialed pipes) the endpoint
// addresses the ends report.
type pipe struct {
	c2s, s2c       pipeBuffer
	client, server Conn
	addrs          [2]Addr
}

// init wires the pipe's buffers and ends together.
func (p *pipe) init(clientAddr, serverAddr net.Addr) (client, server *Conn) {
	p.c2s.cond.L = &p.c2s.mu
	p.s2c.cond.L = &p.s2c.mu
	p.client = Conn{readBuf: &p.s2c, writeBuf: &p.c2s, local: clientAddr, remote: serverAddr}
	p.server = Conn{readBuf: &p.c2s, writeBuf: &p.s2c, local: serverAddr, remote: clientAddr}
	return &p.client, &p.server
}

// Pipe creates a connected pair of in-memory connections with the given
// endpoint addresses.
func Pipe(clientAddr, serverAddr net.Addr) (client, server *Conn) {
	return new(pipe).init(clientAddr, serverAddr)
}

// dialPipe is Pipe for Dial: the addresses are stored inside the pipe, so
// reporting them costs no further allocation.
func dialPipe(clientAP, serverAP netip.AddrPort) (client, server *Conn) {
	p := &pipe{addrs: [2]Addr{{clientAP}, {serverAP}}}
	return p.init(&p.addrs[0], &p.addrs[1])
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.readBuf.read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.writeBuf.write(p) }

// Close implements net.Conn; it signals EOF to the peer.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.writeBuf.close()
		c.readBuf.close()
	})
	return nil
}

// Reset aborts the connection: the peer's reads (and ours) fail with
// ErrConnReset, modeling a TCP RST mid-handshake.
func (c *Conn) Reset() {
	c.writeBuf.fail(ErrConnReset)
	c.readBuf.fail(ErrConnReset)
}

// ResetInbound resets only the receiving direction: our writes still reach
// the peer, but everything the peer sends back is replaced by
// ErrConnReset — an RST arriving after our request went out.
func (c *Conn) ResetInbound() {
	c.readBuf.fail(ErrConnReset)
}

// TruncateInbound cuts the receiving direction after n more bytes: reads
// deliver at most n bytes of whatever the peer writes, then EOF. The peer
// keeps writing successfully, as with a connection torn down in transit.
func (c *Conn) TruncateInbound(n int) {
	c.readBuf.truncateAfter(n)
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.readBuf.setDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readBuf.setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Writes to the in-memory buffer
// never block, so the deadline is accepted and ignored.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }
