package simnet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"repro/internal/simclock"
)

// echoHandler registers a handler that answers any received bytes with
// "pong".
func echoHandler(n *Network, addr netip.AddrPort) {
	n.Handle(addr, func(c net.Conn) {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write([]byte("pong"))
		}
	})
}

func TestFaultFlakyRecovers(t *testing.T) {
	n := New()
	addr := ep("192.0.2.30:443")
	echoHandler(n, addr)
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultFlaky, FailCount: 2})

	for i := 0; i < 2; i++ {
		if _, err := n.Dial(context.Background(), addr); !IsReset(err) {
			t.Fatalf("dial %d: err = %v, want reset", i, err)
		}
	}
	c, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial after FailCount: %v", err)
	}
	defer c.Close()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "pong" {
		t.Fatalf("recovered endpoint: %v %q", err, buf)
	}
}

func TestFaultFlakyCustomError(t *testing.T) {
	n := New()
	addr := ep("192.0.2.31:443")
	echoHandler(n, addr)
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultFlaky, FailCount: 1, FailWith: ErrTimedOut})
	if _, err := n.Dial(context.Background(), addr); !IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if _, err := n.Dial(context.Background(), addr); err != nil {
		t.Fatalf("second dial: %v", err)
	}
}

func TestFaultProbDeterministic(t *testing.T) {
	seq := func(seed int64) []bool {
		n := New()
		n.SetSeed(seed)
		addr := ep("192.0.2.32:443")
		echoHandler(n, addr)
		n.SetFaultSpec(addr, FaultSpec{Mode: FaultProb, Probability: 0.5})
		var out []bool
		for i := 0; i < 40; i++ {
			_, err := n.Dial(context.Background(), addr)
			out = append(out, err == nil)
		}
		return out
	}
	a, b := seq(7), seq(7)
	other := seq(8)
	fails, diff := 0, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at dial %d", i)
		}
		if !a[i] {
			fails++
		}
		if a[i] != other[i] {
			diff = true
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("p=0.5 produced %d/%d failures", fails, len(a))
	}
	if !diff {
		t.Error("different seeds produced identical sequences")
	}
}

func TestFaultProbExtremes(t *testing.T) {
	n := New()
	addr := ep("192.0.2.33:443")
	echoHandler(n, addr)
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultProb, Probability: 1})
	if _, err := n.Dial(context.Background(), addr); err == nil {
		t.Fatal("p=1 dial succeeded")
	}
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultProb, Probability: 0})
	if _, err := n.Dial(context.Background(), addr); err != nil {
		t.Fatalf("p=0 dial failed: %v", err)
	}
}

func TestFaultMidHandshake(t *testing.T) {
	n := New()
	addr := ep("192.0.2.34:443")
	got := make(chan []byte, 1)
	n.Handle(addr, func(c net.Conn) {
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err == nil {
			got <- buf
		}
		c.Write([]byte("ServerHello"))
	})
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultMidHandshake})
	c, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("mid-handshake fault must complete the dial: %v", err)
	}
	defer c.Close()
	// Our request goes out and reaches the server...
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	select {
	case b := <-got:
		if string(b) != "hello" {
			t.Fatalf("server received %q", b)
		}
	case <-time.After(time.Second):
		t.Fatal("server never saw the client bytes")
	}
	// ...but everything the server answers is replaced by a reset.
	buf := make([]byte, 4)
	if _, err := c.Read(buf); !IsReset(err) {
		t.Fatalf("read err = %v, want reset", err)
	}
}

func TestFaultTruncate(t *testing.T) {
	n := New()
	addr := ep("192.0.2.35:443")
	n.Handle(addr, func(c net.Conn) {
		c.Write([]byte("0123456789"))
	})
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultTruncate, TruncateBytes: 4})
	c, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "0123" {
		t.Fatalf("got %q, want truncation after 4 bytes", got)
	}
}

func TestDialLatencyAdvancesVirtualClock(t *testing.T) {
	n := New()
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n.SetClock(clock)
	addr := ep("192.0.2.36:443")
	echoHandler(n, addr)
	n.SetFaultSpec(addr, FaultSpec{DialLatency: 300 * time.Millisecond})
	wall := time.Now()
	if _, err := n.Dial(context.Background(), addr); err != nil {
		t.Fatal(err)
	}
	if time.Since(wall) > 100*time.Millisecond {
		t.Error("injected latency consumed wall-clock time")
	}
	if got := clock.Now().Sub(time.Unix(0, 0)); got != 300*time.Millisecond {
		t.Errorf("virtual clock advanced %v, want 300ms", got)
	}
}

func TestSetFaultSpecResetsDialOrdinal(t *testing.T) {
	n := New()
	addr := ep("192.0.2.37:443")
	echoHandler(n, addr)
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultFlaky, FailCount: 1})
	n.Dial(context.Background(), addr) // consumes the failure
	if _, err := n.Dial(context.Background(), addr); err != nil {
		t.Fatalf("recovered dial failed: %v", err)
	}
	// Re-installing the fault starts the count over.
	n.SetFaultSpec(addr, FaultSpec{Mode: FaultFlaky, FailCount: 1})
	if _, err := n.Dial(context.Background(), addr); !IsReset(err) {
		t.Fatalf("err = %v, want reset after re-install", err)
	}
}

func TestFirewallTimeoutIsBothTimeoutAndFirewalled(t *testing.T) {
	if !IsTimeout(ErrFirewallTimeout) {
		t.Error("firewall timeout does not classify as timeout")
	}
	if !errors.Is(ErrFirewallTimeout, ErrFirewalled) {
		t.Error("firewall timeout not identifiable as firewalled")
	}
	if errors.Is(ErrTimedOut, ErrFirewalled) {
		t.Error("plain timeout misidentified as firewalled")
	}
}
