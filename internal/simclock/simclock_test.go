package simclock

import (
	"context"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2020, 4, 22, 0, 0, 0, 0, time.UTC)

func TestVirtualSleepCollapses(t *testing.T) {
	c := NewVirtual(epoch)
	start := time.Now()
	if err := c.Sleep(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 100*time.Millisecond {
		t.Errorf("collapsed sleep consumed %v wall-clock", wall)
	}
	if got := c.Now(); !got.Equal(epoch.Add(time.Hour)) {
		t.Errorf("Now = %v, want %v", got, epoch.Add(time.Hour))
	}
}

func TestVirtualSleepCancelled(t *testing.T) {
	c := NewVirtual(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); err != context.Canceled {
		t.Errorf("err = %v, want canceled", err)
	}
	if !c.Now().Equal(epoch) {
		t.Error("cancelled sleep advanced the clock")
	}
}

func TestVirtualConcurrentSleeps(t *testing.T) {
	c := NewVirtual(epoch)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(context.Background(), time.Minute)
		}()
	}
	wg.Wait()
	if got := c.Now(); !got.Equal(epoch.Add(50 * time.Minute)) {
		t.Errorf("Now = %v after 50 concurrent 1m sleeps", got)
	}
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	c := NewManual(epoch)
	woke := make(chan time.Duration, 2)
	for _, d := range []time.Duration{2 * time.Second, time.Second} {
		d := d
		go func() {
			c.Sleep(context.Background(), d)
			woke <- d
		}()
	}
	for c.NumWaiters() != 2 {
		time.Sleep(time.Millisecond)
	}
	c.Advance(500 * time.Millisecond)
	select {
	case d := <-woke:
		t.Fatalf("sleeper %v woke before its deadline", d)
	case <-time.After(20 * time.Millisecond):
	}
	c.Advance(time.Second) // now at +1.5s: releases the 1s sleeper only
	if d := <-woke; d != time.Second {
		t.Fatalf("woke %v first, want 1s", d)
	}
	c.Advance(time.Second) // +2.5s: releases the 2s sleeper
	if d := <-woke; d != 2*time.Second {
		t.Fatalf("woke %v, want 2s", d)
	}
}

func TestManualSleepCancelRemovesWaiter(t *testing.T) {
	c := NewManual(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- c.Sleep(ctx, time.Hour) }()
	for c.NumWaiters() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	if c.NumWaiters() != 0 {
		t.Error("cancelled waiter not removed")
	}
}

func TestSetTimeNeverGoesBackwards(t *testing.T) {
	c := NewVirtual(epoch)
	c.SetTime(epoch.Add(time.Hour))
	c.SetTime(epoch) // ignored
	if got := c.Now(); !got.Equal(epoch.Add(time.Hour)) {
		t.Errorf("Now = %v", got)
	}
}

func TestRealSleepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := (Real{}).Sleep(ctx, 5*time.Second); err == nil {
		t.Fatal("cancelled real sleep returned nil")
	}
	if time.Since(start) > time.Second {
		t.Error("cancelled real sleep blocked")
	}
}
