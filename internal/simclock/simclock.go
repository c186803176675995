// Package simclock provides the time source shared by the simulated
// network and the scanner. Production code runs on the Real wall clock;
// simulation runs on a Virtual clock whose Sleep advances simulated time
// instead of consuming wall-clock time, so a full-world scan with
// exponential backoff between retries still finishes in milliseconds while
// exercising exactly the production code paths.
//
// The Virtual clock has two modes. The default (NewVirtual) collapses
// waiting: Sleep advances the clock by the requested duration and returns
// immediately, mirroring simnet's "waiting time is collapsed" philosophy.
// Manual mode (NewManual) parks sleepers until a test calls Advance,
// which is the shape needed to unit-test timer-ordering behaviour.
package simclock

import (
	"context"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for code that must run identically against the wall
// clock and against simulated time.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Sleep pauses the calling goroutine for d, or until the context is
	// cancelled, in which case the context's error is returned.
	Sleep(ctx context.Context, d time.Duration) error
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock, honouring context cancellation.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Virtual is a deterministic simulated clock.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	manual  bool
	waiters []*waiter
}

// waiter is one goroutine parked in a manual-mode Sleep.
type waiter struct {
	deadline time.Time
	ch       chan struct{}
}

// NewVirtual returns a collapsing virtual clock starting at start: Sleep
// advances simulated time and returns immediately.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// NewManual returns a virtual clock whose Sleep blocks until Advance (or
// Set) moves simulated time past the sleeper's deadline.
func NewManual(start time.Time) *Virtual {
	return &Virtual{now: start, manual: true}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep implements Clock. In collapsing mode it advances the clock by d and
// returns immediately; in manual mode it parks until Advance catches up.
func (v *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	v.mu.Lock()
	if !v.manual {
		v.now = v.now.Add(d)
		v.mu.Unlock()
		return nil
	}
	w := &waiter{deadline: v.now.Add(d), ch: make(chan struct{})}
	v.waiters = append(v.waiters, w)
	v.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		v.remove(w)
		return ctx.Err()
	}
}

// Advance moves simulated time forward by d, releasing every sleeper whose
// deadline has been reached, earliest first.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceTo(v.now.Add(d))
}

// SetTime jumps simulated time to t (never backwards), waking due sleepers.
func (v *Virtual) SetTime(t time.Time) {
	v.mu.Lock()
	v.advanceTo(t)
}

// advanceTo jumps simulated time to t (never backwards) and wakes due
// sleepers, earliest deadline first. Called with v.mu held; releases it.
func (v *Virtual) advanceTo(t time.Time) {
	if t.After(v.now) {
		v.now = t
	}
	var due []*waiter
	rest := v.waiters[:0]
	for _, w := range v.waiters {
		if !w.deadline.After(v.now) {
			due = append(due, w)
		} else {
			rest = append(rest, w)
		}
	}
	v.waiters = rest
	v.mu.Unlock()
	sort.Slice(due, func(i, j int) bool { return due[i].deadline.Before(due[j].deadline) })
	for _, w := range due {
		close(w.ch)
	}
}

// NumWaiters reports how many goroutines are parked in manual-mode sleeps
// (test synchronization helper).
func (v *Virtual) NumWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// remove drops a cancelled waiter.
func (v *Virtual) remove(w *waiter) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, x := range v.waiters {
		if x == w {
			v.waiters = append(v.waiters[:i], v.waiters[i+1:]...)
			return
		}
	}
}

// Backoff is the delay before re-attempt number attempt (0-based):
// exponential doubling from base, capped at limit, scaled by a
// deterministic jitter factor in [0.5, 1.5) hashed from seed, attempt and
// key. Retries decorrelate across keys without an RNG shared between
// goroutines. base must be positive.
func Backoff(base, limit time.Duration, seed int64, attempt int, key []byte) time.Duration {
	d := base
	for i := 0; i < attempt && d < limit; i++ {
		d <<= 1
	}
	d = min(d, limit)
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
		buf[8+i] = byte(int64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write(key)
	frac := float64(h.Sum64()>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + frac))
}
