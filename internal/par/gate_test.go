package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateBoundsAdmission(t *testing.T) {
	const gcap, n = 3, 20
	g := NewGate(gcap)
	if g.Cap() != gcap {
		t.Fatalf("Cap = %d, want %d", g.Cap(), gcap)
	}
	var inUse, peak atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(ctx); err != nil {
				t.Error(err)
				return
			}
			cur := inUse.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inUse.Add(-1)
			g.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > gcap {
		t.Errorf("peak concurrent holders = %d, want <= %d", p, gcap)
	}
	if g.InUse() != 0 {
		t.Errorf("InUse = %d after all released", g.InUse())
	}
}

func TestGateAcquireHonorsCancellation(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Acquire(ctx) }()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Errorf("blocked Acquire returned %v, want context.Canceled", err)
	}
	// A pre-cancelled context loses even when a slot is free.
	g.Release()
	if err := g.Acquire(ctx); err != context.Canceled {
		t.Errorf("Acquire with cancelled ctx and free slot returned %v, want context.Canceled", err)
	}
}

func TestGateReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	NewGate(1).Release()
}

func TestGateZeroMeansPerCPU(t *testing.T) {
	if got := NewGate(0).Cap(); got != Workers(0) {
		t.Errorf("NewGate(0).Cap() = %d, want %d", got, Workers(0))
	}
}
