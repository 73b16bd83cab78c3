package view

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/asv-db/asv/internal/dist"
)

// lazyEagerPair creates a lazy and an eager view over the same range of
// the same column. The caller owns both views.
func lazyEagerPair(t *testing.T, lo, hi uint64) (lazy, eager *View) {
	t.Helper()
	c := testColumn(t, 128, dist.NewLinear(3, 0, 100_000, 128))
	lazy, err := Create(c, lo, hi, CreateOptions{Lazy: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eager, err = Create(c, lo, hi, CreateOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

func TestLazyCreateMapsNothing(t *testing.T) {
	c := testColumn(t, 128, dist.NewLinear(3, 0, 100_000, 128))
	c.Space().ResetStats()
	v, err := Create(c, 20_000, 60_000, CreateOptions{Lazy: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Lazy() {
		t.Fatal("view built with Lazy option is not lazy")
	}
	if v.NumPages() == 0 {
		t.Fatal("test range qualifies no pages")
	}
	if got := c.Space().Stats().DemandMaps; got != 0 {
		t.Fatalf("creation issued %d demand maps, want 0", got)
	}

	// A slot read goes through the column: it maps nothing.
	if _, err := v.PageBytes(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Space().Stats().DemandMaps; got != 0 {
		t.Fatalf("slot read issued %d demand maps, want 0", got)
	}
	if !v.Lazy() {
		t.Fatal("slot read converted the view")
	}
	if err := v.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyResolvesSameBytesAsEager(t *testing.T) {
	lazy, eager := lazyEagerPair(t, 20_000, 60_000)
	if lazy.NumPages() != eager.NumPages() {
		t.Fatalf("lazy indexes %d pages, eager %d", lazy.NumPages(), eager.NumPages())
	}
	for i := 0; i < lazy.NumPages(); i++ {
		lp, err := lazy.PageBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := eager.PageBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lp, ep) {
			t.Fatalf("page %d diverged between lazy and eager view", i)
		}
	}
	if err := lazy.Release(); err != nil {
		t.Fatal(err)
	}
	if err := eager.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestEnsureMappedConvertsToEager(t *testing.T) {
	lazy, eager := lazyEagerPair(t, 20_000, 60_000)
	if err := lazy.EnsureMapped(); err != nil {
		t.Fatal(err)
	}
	if lazy.Lazy() {
		t.Fatal("EnsureMapped left the view lazy")
	}
	for i := 0; i < lazy.NumPages(); i++ {
		lp, err := lazy.PageBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := eager.PageBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lp, ep) {
			t.Fatalf("page %d diverged after conversion", i)
		}
	}
	// Idempotent on an eager view.
	if err := lazy.EnsureMapped(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Release(); err != nil {
		t.Fatal(err)
	}
	if err := eager.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyConcurrentReaders(t *testing.T) {
	lazy, eager := lazyEagerPair(t, 0, 100_000)
	n := lazy.NumPages()
	want := make([][]byte, n)
	for i := range want {
		p, err := eager.PageBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Each goroutine walks from a different offset so the
				// readers hit the same slots at the same time.
				j := (i + g*7) % n
				p, err := lazy.PageBytes(j)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(p, want[j]) {
					errs <- fmt.Errorf("page %d diverged from eager view", j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent lazy read: %v", err)
	}
	if err := lazy.Release(); err != nil {
		t.Fatal(err)
	}
	if err := eager.Release(); err != nil {
		t.Fatal(err)
	}
}
