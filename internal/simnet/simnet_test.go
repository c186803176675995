package simnet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"testing"
	"time"
)

func ep(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

// TestListenDialRoundtrip: bytes the dialer writes reach the endpoint's
// handler, and the handler's reply reaches the dialer.
func TestListenDialRoundtrip(t *testing.T) {
	n := New()
	n.Handle(ep("192.0.2.1:443"), func(c net.Conn) {
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write(append([]byte("re:"), buf...))
		}
	})
	c, err := n.Dial(context.Background(), ep("192.0.2.1:443"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "re:hello" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestDialNoListenerRefused(t *testing.T) {
	n := New()
	_, err := n.Dial(context.Background(), ep("192.0.2.9:443"))
	if !IsRefused(err) {
		t.Fatalf("err = %v, want refused", err)
	}
}

func TestFaultRefuse(t *testing.T) {
	n := New()
	addr := ep("192.0.2.2:443")
	n.Handle(addr, func(net.Conn) {})
	n.SetFault(addr, FaultRefuse)
	if _, err := n.Dial(context.Background(), addr); !IsRefused(err) {
		t.Fatalf("err = %v, want refused", err)
	}
	n.SetFault(addr, FaultNone)
	if _, err := n.Dial(context.Background(), addr); err != nil {
		t.Fatalf("after clearing fault: %v", err)
	}
}

func TestFaultTimeout(t *testing.T) {
	n := New()
	addr := ep("192.0.2.3:443")
	n.SetFault(addr, FaultTimeout)
	start := time.Now()
	_, err := n.Dial(context.Background(), addr)
	if !IsTimeout(err) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("timeout fault consumed wall-clock time")
	}
}

func TestFaultReset(t *testing.T) {
	n := New()
	addr := ep("192.0.2.4:443")
	n.Handle(addr, func(net.Conn) {})
	n.SetFault(addr, FaultReset)
	c, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatalf("dial with reset fault should succeed: %v", err)
	}
	buf := make([]byte, 4)
	if _, err := c.Read(buf); !IsReset(err) {
		t.Fatalf("read err = %v, want reset", err)
	}
}

func TestFirewallBlocks(t *testing.T) {
	n := New()
	blocked, open := ep("203.0.113.7:443"), ep("203.0.113.8:443")
	n.Handle(blocked, func(net.Conn) {})
	n.Handle(open, func(net.Conn) {})
	n.SetFirewall(func(to netip.AddrPort) error {
		if to == blocked {
			return ErrFirewalled
		}
		return nil
	})
	if _, err := n.Dial(context.Background(), blocked); !errors.Is(err, ErrFirewalled) {
		t.Fatalf("err = %v, want firewalled", err)
	}
	if _, err := n.Dial(context.Background(), open); err != nil {
		t.Fatalf("unblocked destination refused: %v", err)
	}
}

func TestDialCancelledContext(t *testing.T) {
	n := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Dial(ctx, ep("192.0.2.5:443")); err == nil {
		t.Fatal("dial with cancelled context succeeded")
	}
}

func TestConnCloseGivesEOF(t *testing.T) {
	client, server := Pipe(Addr{ep("10.0.0.1:1")}, Addr{ep("10.0.0.2:2")})
	if _, err := client.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	buf := make([]byte, 3)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("buffered data lost after close: %v", err)
	}
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if _, err := server.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	client, _ := Pipe(Addr{ep("10.0.0.1:1")}, Addr{ep("10.0.0.2:2")})
	client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err := client.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("deadline read blocked too long")
	}
}

func TestDeadlineClearedAllowsRead(t *testing.T) {
	client, server := Pipe(Addr{ep("10.0.0.1:1")}, Addr{ep("10.0.0.2:2")})
	client.SetReadDeadline(time.Now().Add(-time.Second))
	buf := make([]byte, 1)
	if _, err := client.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}
	client.SetReadDeadline(time.Time{})
	server.Write([]byte("z"))
	if _, err := client.Read(buf); err != nil || buf[0] != 'z' {
		t.Fatalf("read after clearing deadline: %v %q", err, buf)
	}
}

func TestAddrReporting(t *testing.T) {
	n := New()
	addr := ep("192.0.2.8:443")
	n.Handle(addr, func(net.Conn) {})
	c, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if c.RemoteAddr().String() != "192.0.2.8:443" {
		t.Errorf("RemoteAddr = %s", c.RemoteAddr())
	}
	if c.RemoteAddr().Network() != "sim" {
		t.Errorf("Network = %s", c.RemoteAddr().Network())
	}
}

func TestConcurrentDials(t *testing.T) {
	n := New()
	addr := ep("192.0.2.10:443")
	n.Handle(addr, func(c net.Conn) {
		buf := make([]byte, 1)
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write(buf)
		}
	})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial(context.Background(), addr)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			defer c.Close()
			c.Write([]byte{byte(i)})
			buf := make([]byte, 1)
			if _, err := io.ReadFull(c, buf); err != nil || buf[0] != byte(i) {
				t.Errorf("dial %d echo: %v %d", i, err, buf[0])
			}
		}(i)
	}
	wg.Wait()
	if n.DialCount() < 50 {
		t.Errorf("DialCount = %d, want >= 50", n.DialCount())
	}
}

func TestHandlerEndpoint(t *testing.T) {
	n := New()
	addr := ep("192.0.2.20:80")
	n.Handle(addr, func(c net.Conn) {
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err == nil {
			c.Write([]byte("pong"))
		}
	})
	c, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "pong" {
		t.Fatalf("handler echo: %v %q", err, buf)
	}
	n.Handle(addr, nil)
	if _, err := n.Dial(context.Background(), addr); !IsRefused(err) {
		t.Fatalf("dial after deregistration = %v, want refused", err)
	}
}

func TestHandlerClosesConnOnReturn(t *testing.T) {
	n := New()
	addr := ep("192.0.2.21:80")
	n.Handle(addr, func(c net.Conn) {
		c.Write([]byte("bye"))
	})
	c, err := n.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := io.ReadAll(c)
	if err != nil || string(got) != "bye" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}
