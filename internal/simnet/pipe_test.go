package simnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

func testPipe() (client, server *Conn) {
	return Pipe(Addr{ep("10.0.0.1:1")}, Addr{ep("10.0.0.2:2")})
}

// TestPipeInterleavedPartialReads interleaves writes and partial reads of
// random sizes, so the queue drains and rewinds many times mid-stream, and
// checks the reader sees exactly the written byte stream.
func TestPipeInterleavedPartialReads(t *testing.T) {
	client, server := testPipe()
	rng := rand.New(rand.NewSource(7))
	var want, got []byte
	next := byte(0)
	p := make([]byte, 64)
	for round := 0; round < 2000; round++ {
		if rng.Intn(2) == 0 {
			chunk := make([]byte, 1+rng.Intn(40))
			for i := range chunk {
				chunk[i] = next
				next++
			}
			if _, err := client.Write(chunk); err != nil {
				t.Fatal(err)
			}
			want = append(want, chunk...)
		}
		if len(got) < len(want) {
			n, err := server.Read(p[:1+rng.Intn(len(p))])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, p[:n]...)
		}
	}
	for len(got) < len(want) {
		n, err := server.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(want))
	}
}

// TestPipeRewindReusesBuffer checks a drained queue rewinds, so the next
// write lands in the same backing array instead of a new one.
func TestPipeRewindReusesBuffer(t *testing.T) {
	client, server := testPipe()
	b := client.writeBuf
	client.Write(make([]byte, 100))
	backing := &b.buf[0]
	p := make([]byte, 60)
	server.Read(p)
	if b.off != 60 {
		t.Fatalf("off = %d after a partial read, want 60", b.off)
	}
	server.Read(p)
	if b.off != 0 || len(b.buf) != 0 {
		t.Fatalf("drained queue did not rewind: off=%d len=%d", b.off, len(b.buf))
	}
	client.Write([]byte("again"))
	if &b.buf[0] != backing {
		t.Fatal("write after a drain allocated a new backing array")
	}
	if n, _ := server.Read(p); string(p[:n]) != "again" {
		t.Fatalf("read %q, want %q", p[:n], "again")
	}
}

// TestPipeConcurrentStream streams through the pipe with a concurrent
// writer and reader of mismatched chunk sizes.
func TestPipeConcurrentStream(t *testing.T) {
	client, server := testPipe()
	want := make([]byte, 200_000)
	rand.New(rand.NewSource(3)).Read(want)
	go func() {
		rng := rand.New(rand.NewSource(4))
		for rest := want; len(rest) > 0; {
			n := min(1+rng.Intn(3000), len(rest))
			client.Write(rest[:n])
			rest = rest[n:]
		}
		client.Close()
	}()
	var got bytes.Buffer
	p := make([]byte, 777)
	for {
		n, err := server.Read(p)
		got.Write(p[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", got.Len(), len(want))
	}
}

// TestPipeFaultsAcrossRewind pins the truncate and reset semantics, with
// the queue already drained and rewound before the fault is installed.
func TestPipeFaultsAcrossRewind(t *testing.T) {
	drain := func(c *Conn, n int) {
		t.Helper()
		if _, err := io.ReadFull(c, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncate", func(t *testing.T) {
		client, server := testPipe()
		server.Write([]byte("hello"))
		drain(client, 5)
		client.TruncateInbound(3)
		if n, err := server.Write([]byte("abcdef")); n != 6 || err != nil {
			t.Fatalf("truncated write = %d, %v; the writer must not notice", n, err)
		}
		got, err := io.ReadAll(client)
		if err != nil || string(got) != "abc" {
			t.Fatalf("read %q, %v; want %q then EOF", got, err, "abc")
		}
		if _, err := server.Write([]byte("x")); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("write past the budget = %v, want ErrConnClosed", err)
		}
	})

	t.Run("truncate-zero-keeps-buffered", func(t *testing.T) {
		client, server := testPipe()
		server.Write([]byte("hello"))
		drain(client, 2)
		client.TruncateInbound(0)
		got, err := io.ReadAll(client)
		if err != nil || string(got) != "llo" {
			t.Fatalf("read %q, %v; want the buffered %q then EOF", got, err, "llo")
		}
	})

	t.Run("reset-inbound", func(t *testing.T) {
		client, server := testPipe()
		server.Write([]byte("hello"))
		drain(client, 5)
		server.Write([]byte("lost"))
		client.ResetInbound()
		if _, err := client.Read(make([]byte, 4)); !IsReset(err) {
			t.Fatalf("client read = %v, want reset", err)
		}
		if _, err := client.Write([]byte("req")); err != nil {
			t.Fatal(err)
		}
		drain(server, 3)
	})

	t.Run("reset", func(t *testing.T) {
		client, server := testPipe()
		client.Write([]byte("hi"))
		drain(server, 2)
		client.Reset()
		if _, err := client.Read(make([]byte, 1)); !IsReset(err) {
			t.Fatalf("client read = %v, want reset", err)
		}
		if _, err := server.Read(make([]byte, 1)); !IsReset(err) {
			t.Fatalf("server read = %v, want reset", err)
		}
	})
}

// TestBlockedHandlerNeverStallsDials dials a handler that blocks forever
// more times than there are parking slots, then checks a healthy endpoint
// still answers promptly.
func TestBlockedHandlerNeverStallsDials(t *testing.T) {
	n := New()
	stuck, echo := ep("192.0.2.30:80"), ep("192.0.2.31:80")
	release := make(chan struct{})
	var blocked sync.WaitGroup
	t.Cleanup(func() {
		close(release)
		blocked.Wait()
	})
	n.Handle(stuck, func(net.Conn) {
		defer blocked.Done()
		<-release
	})
	n.Handle(echo, func(c net.Conn) {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write(buf)
		}
	})

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3*maxParkedHandlers; i++ {
			blocked.Add(1)
			if _, err := n.Dial(context.Background(), stuck); err != nil {
				blocked.Done()
				done <- err
				return
			}
		}
		c, err := n.Dial(context.Background(), echo)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		c.Write([]byte("ping"))
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "ping" {
			done <- errors.New("echo after blocked handlers failed")
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dials stalled behind handlers that never return")
	}
}

// TestParkedHandlersBounded runs a burst of concurrent connections, checks
// the parked count never exceeds the bound, and that a later connection is
// served by a parked goroutine.
func TestParkedHandlersBounded(t *testing.T) {
	n := New()
	addr := ep("192.0.2.32:80")
	const burst = 4 * maxParkedHandlers
	var running, returned sync.WaitGroup
	running.Add(burst)
	returned.Add(burst)
	gate := make(chan struct{})
	n.Handle(addr, func(net.Conn) {
		defer returned.Done()
		running.Done()
		<-gate
	})

	stop := make(chan struct{})
	sampled := make(chan int32, 1)
	go func() {
		worst := int32(0)
		for {
			worst = max(worst, parked.Load())
			select {
			case <-stop:
				sampled <- worst
				return
			default:
			}
		}
	}()

	var dialers sync.WaitGroup
	for i := 0; i < burst; i++ {
		dialers.Add(1)
		go func() {
			defer dialers.Done()
			if _, err := n.Dial(context.Background(), addr); err != nil {
				t.Error(err)
			}
		}()
	}
	dialers.Wait()
	running.Wait() // every handler is live at once
	close(gate)
	returned.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for parked.Load() != maxParkedHandlers {
		if time.Now().After(deadline) {
			t.Fatalf("parked = %d after the burst, want %d", parked.Load(), maxParkedHandlers)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	if worst := <-sampled; worst > maxParkedHandlers {
		t.Fatalf("parked reached %d, bound is %d", worst, maxParkedHandlers)
	}

	// A connection handed to a parked goroutine runs with one slot free.
	// A burst goroutine still between its handler's return and its (so far
	// failing) park attempt can refill that slot first, so allow a few
	// tries.
	seen := make(chan int32, 1)
	reuse := ep("192.0.2.33:80")
	n.Handle(reuse, func(net.Conn) { seen <- parked.Load() })
	got := int32(-1)
	for try := 0; try < 10 && got != maxParkedHandlers-1; try++ {
		if _, err := n.Dial(context.Background(), reuse); err != nil {
			t.Fatal(err)
		}
		got = <-seen
	}
	if got != maxParkedHandlers-1 {
		t.Fatalf("parked = %d inside a handler, want %d: the connection did not go to a parked goroutine", got, maxParkedHandlers-1)
	}
}
