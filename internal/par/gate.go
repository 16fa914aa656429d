package par

import "context"

// Gate is a bounded admission gate: at most Cap goroutines hold it at
// once. It is the serving layer's counterpart to ForEach's worker
// bound — where ForEach bounds fan-out inside one run, Gate bounds how
// many runs are admitted concurrently, so a burst of scenario queries
// cannot oversubscribe the worker pools they each fan out on.
//
// The zero value is not usable; obtain one from NewGate.
type Gate struct {
	sem chan struct{}
}

// NewGate returns a gate admitting at most n concurrent holders; n is
// normalized by Workers, so 0 (or negative) means one per CPU.
func NewGate(n int) *Gate {
	return &Gate{sem: make(chan struct{}, Workers(n))}
}

// Cap returns the admission bound.
func (g *Gate) Cap() int { return cap(g.sem) }

// InUse returns the number of currently admitted holders (a snapshot;
// stale by the time the caller reads it, useful for gauges only).
func (g *Gate) InUse() int { return len(g.sem) }

// Acquire blocks until a slot frees or ctx is done, and reports which.
// Every successful Acquire must be paired with exactly one Release.
func (g *Gate) Acquire(ctx context.Context) error {
	// A done context wins even when a slot is also free, so a cancelled
	// caller never starts work it no longer wants.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire. Releasing more than was
// acquired panics — that is a caller bug, not a recoverable state.
func (g *Gate) Release() {
	select {
	case <-g.sem:
	default:
		panic("par: Gate.Release without a matching Acquire")
	}
}
