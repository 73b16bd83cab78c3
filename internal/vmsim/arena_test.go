package vmsim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestRecycledFrameReadsZeroAfterRegrow: a file that shrinks gives its
// written frames back, and growing it again takes those same frames from
// the free list. Only recycled frames are cleared on allocation, so they
// are the ones that must read all zero.
func TestRecycledFrameReadsZeroAfterRegrow(t *testing.T) {
	const pages = 8
	k := NewKernel(0)
	f, err := k.CreateFile("f", pages)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < pages; p++ {
		d, err := f.PageData(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d {
			d[i] = 0xA5
		}
	}
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(pages); err != nil {
		t.Fatal(err)
	}
	if s := k.MemStats(); s.FramesHighWater != pages {
		t.Fatalf("arena high water %d after the regrow, want %d: frames were not recycled", s.FramesHighWater, pages)
	}
	for p := 0; p < pages; p++ {
		d, err := f.PageData(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range d {
			if b != 0 {
				t.Fatalf("page %d byte %d = %#x after shrink and regrow, want 0", p, i, b)
			}
		}
	}
}

// TestCreateFilePastFrameLimit: a file larger than what is left below
// maxFrames fails with ErrNoMemory before it takes a frame or grows the
// arena, and a file that takes exactly what is left allocates no chunk
// beyond the one that holds the last frame.
func TestCreateFilePastFrameLimit(t *testing.T) {
	const maxFrames = framesPerChunk + 1 // two chunks at most
	k := NewKernel(maxFrames)
	if _, err := k.CreateFile("small", 3); err != nil {
		t.Fatal(err)
	}
	chunks := func() int {
		k.mu.Lock()
		defer k.mu.Unlock()
		return len(k.chunks)
	}
	inUse, before := k.FramesInUse(), chunks()

	if _, err := k.CreateFile("big", maxFrames); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("CreateFile of %d pages with %d frames left: err = %v, want ErrNoMemory", maxFrames, maxFrames-3, err)
	}
	if got := k.FramesInUse(); got != inUse {
		t.Fatalf("FramesInUse = %d after the failed create, want %d", got, inUse)
	}
	if got := chunks(); got != before {
		t.Fatalf("failed create grew the arena from %d to %d chunks", before, got)
	}
	if _, ok := k.files["big"]; ok {
		t.Fatal("failed create left the file behind")
	}

	if _, err := k.CreateFile("rest", maxFrames-3); err != nil {
		t.Fatal(err)
	}
	if got, want := chunks(), (maxFrames+framesPerChunk-1)/framesPerChunk; got != want {
		t.Fatalf("arena has %d chunks at the frame limit, want %d", got, want)
	}
	if got := k.FramesInUse(); got != maxFrames {
		t.Fatalf("FramesInUse = %d, want %d", got, maxFrames)
	}
}

// TestConcurrentCreateFileAndReplacePageFrame races file creations that
// grow the arena chunk by chunk against copy-on-write frame replacement,
// which takes single frames at the arena's end. Run under -race. Every
// page must keep its contents, and the frames must balance at the end.
func TestConcurrentCreateFileAndReplacePageFrame(t *testing.T) {
	k := NewKernel(0)
	const srcPages = 64
	src, err := k.CreateFile("src", srcPages)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < srcPages; p++ {
		d, _ := src.PageData(p)
		d[0] = byte(p)
	}
	const creators, rounds = 3, 4
	var wg sync.WaitGroup
	errs := make(chan error, creators+1)
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("c%d-%d", c, r)
				pages := framesPerChunk/2 + c*100
				f, err := k.CreateFile(name, pages)
				if err != nil {
					errs <- err
					return
				}
				for p := 0; p < pages; p += 97 {
					d, _ := f.PageData(p)
					if d[0] != 0 || d[PageSize-1] != 0 {
						errs <- fmt.Errorf("%s page %d not zero", name, p)
						return
					}
					d[0] = 1
				}
				if err := k.RemoveFile(name); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			p := i % srcPages
			old, data, err := src.ReplacePageFrame(p)
			if err != nil {
				errs <- err
				return
			}
			if data[0] != byte(p) {
				errs <- fmt.Errorf("replaced page %d reads %d", p, data[0])
				return
			}
			k.FreeFrame(old)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := k.FramesInUse(); got != srcPages {
		t.Fatalf("FramesInUse = %d after every other file was removed, want %d", got, srcPages)
	}
	s := k.MemStats()
	if s.FramesAllocated-s.FramesFreed != srcPages {
		t.Fatalf("allocated %d - freed %d != %d live frames", s.FramesAllocated, s.FramesFreed, srcPages)
	}
}
