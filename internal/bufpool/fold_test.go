package bufpool

import (
	"sync"
	"testing"
)

func counter(t *testing.T, name string) int64 {
	t.Helper()
	v, ok := Telemetry().Snapshot().Counter(name)
	if !ok {
		t.Fatalf("bufpool snapshot has no %s counter", name)
	}
	return v
}

// TestFoldedCountsExact: gets, oversize and live are folded from the
// per-class counters (and, under -tags bufpooldebug, the quarantine
// count) rather than kept beside them. Concurrent Get/Release over every
// class and oversize must leave gets up by exactly the number of calls,
// oversize by the oversize calls and Live back at its base, while a
// concurrent reader never sees a negative live count.
func TestFoldedCountsExact(t *testing.T) {
	const (
		workers = 4
		perG    = 400
	)
	sizes := []int{0, 1, 64, 65, 512, 513, 4 << 10, 64 << 10}
	size := func(i int) int {
		switch {
		case i%200 == 0:
			return 1 << 20 // the largest class
		case i%200 == 100:
			return 1<<20 + 1 // oversize
		}
		return sizes[i%len(sizes)]
	}
	gets0, oversize0 := counter(t, "gets"), counter(t, "oversize")
	live0, _ := Live()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			if cur, _ := Live(); cur < 0 {
				t.Errorf("Live() = %d mid-run, want >= 0", cur)
				return
			}
			Telemetry().Snapshot()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				b := Get(size(i))
				b.Retain()
				b.Release()
				b.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	if got, want := counter(t, "gets")-gets0, int64(workers*perG); got != want {
		t.Errorf("gets grew by %d, want %d", got, want)
	}
	if got, want := counter(t, "oversize")-oversize0, int64(workers*perG/200); got != want {
		t.Errorf("oversize grew by %d, want %d", got, want)
	}
	if cur, _ := Live(); cur != live0 {
		t.Errorf("Live() = %d after the churn, want %d", cur, live0)
	}
	// The high-water mark is sampled where the count is read: a snapshot
	// taken while a buffer is out must ratchet it.
	b := Get(8)
	held, _ := Telemetry().Snapshot().Gauge("live")
	b.Release()
	if held.Value != live0+1 || held.HighWater < live0+1 {
		t.Errorf("snapshot live with one buffer out = %+v, want %d (hwm >= %d)", held, live0+1, live0+1)
	}
}
