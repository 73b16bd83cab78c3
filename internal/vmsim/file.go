package vmsim

import (
	"fmt"
	"slices"
	"sync"
)

// File is a main-memory file: a named, growable sequence of physical
// frames, playing the role of the tmpfs files under /dev/shm that memory
// rewiring uses as user-space handles on physical memory (§1.2). Mapping a
// virtual area onto a File with Shared semantics makes writes through any
// mapping visible through every other mapping of the same pages — which is
// what lets multiple partial views share physical pages.
type File struct {
	kernel *Kernel
	name   string
	inode  uint64

	mu      sync.RWMutex
	frames  []FrameID
	mapRefs int // file pages currently present in some page table
}

// addRefs adjusts the mapped-page refcount (called by address spaces under
// population and teardown).
func (f *File) addRefs(n int) {
	f.mu.Lock()
	f.mapRefs += n
	if f.mapRefs < 0 {
		f.mu.Unlock()
		panic("vmsim: file map refcount underflow")
	}
	f.mu.Unlock()
}

// MappedPages returns how many page-table entries currently reference this
// file across all address spaces.
func (f *File) MappedPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.mapRefs
}

// CreateFile creates a main-memory file with the given number of zeroed
// pages. The name must be unique within the kernel (think of it as the
// path under /dev/shm).
func (k *Kernel) CreateFile(name string, pages int) (*File, error) {
	if pages < 0 {
		return nil, fmt.Errorf("%w: negative size %d", ErrInvalid, pages)
	}
	k.mu.Lock()
	if _, dup := k.files[name]; dup {
		k.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	f := &File{kernel: k, name: name, inode: k.nextInode}
	k.nextInode++
	k.files[name] = f
	k.mu.Unlock()

	if err := f.Truncate(pages); err != nil {
		// Give back the frames allocated before the failure; the file is
		// unmapped, so shrinking it to zero cannot fail.
		_ = f.Truncate(0) //asv:ignore-err an unmapped file always shrinks; the allocation error is returned
		k.mu.Lock()
		delete(k.files, name)
		k.mu.Unlock()
		return nil, err
	}
	return f, nil
}

// RemoveFile unlinks the file and returns its frames to the allocator.
// Existing mappings keep working in Linux after an unlink; our simulator
// instead requires that callers unmap first — the adaptive layer always
// owns its files for the lifetime of a column, so this stricter rule only
// catches bugs (a removed-but-mapped file would be a use-after-free of
// its frames).
func (k *Kernel) RemoveFile(name string) error {
	k.mu.Lock()
	f, ok := k.files[name]
	if !ok {
		k.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if f.MappedPages() > 0 {
		k.mu.Unlock()
		return fmt.Errorf("vmsim: removing %q while %d of its pages are still mapped", name, f.MappedPages())
	}
	delete(k.files, name)
	k.mu.Unlock()

	f.mu.Lock()
	frames := f.frames
	f.frames = nil
	f.mu.Unlock()
	for _, fr := range frames {
		k.freeFrame(fr)
	}
	return nil
}

// Inode returns the file's inode number (rendered in the maps file).
func (f *File) Inode() uint64 { return f.inode }

// Truncate grows or shrinks the file to the given number of pages. Grown
// pages are zeroed; shrunk pages return their frames to the allocator. A
// grow first extends the arena to cover every frame it takes, and fails
// with ErrNoMemory, taking no frame, when fewer frames than it needs are
// left below the frame limit as it starts.
// Shrinking a file that still has mapped pages is rejected (the kernel
// would deliver SIGBUS on later access; we catch the bug at the source).
func (f *File) Truncate(pages int) error {
	if pages < 0 {
		return fmt.Errorf("%w: negative size %d", ErrInvalid, pages)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if pages < len(f.frames) && f.mapRefs > 0 {
		return fmt.Errorf("vmsim: shrinking %q while %d of its pages are mapped", f.name, f.mapRefs)
	}
	for len(f.frames) > pages {
		fr := f.frames[len(f.frames)-1]
		f.frames = f.frames[:len(f.frames)-1]
		f.kernel.freeFrame(fr)
	}
	if grow := pages - len(f.frames); grow > 0 {
		if err := f.kernel.growArena(grow); err != nil {
			return err
		}
		f.frames = slices.Grow(f.frames, grow)
	}
	for len(f.frames) < pages {
		fr, err := f.kernel.allocFrame()
		if err != nil {
			return err
		}
		f.frames = append(f.frames, fr)
	}
	return nil
}

// frame returns the frame backing file page i.
func (f *File) frame(i int) (FrameID, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if i < 0 || i >= len(f.frames) {
		return 0, fmt.Errorf("%w: page %d of %d-page file %q", ErrBadFileRange, i, len(f.frames), f.name)
	}
	return f.frames[i], nil
}

// frameRange validates pages [first, first+n) and returns a copy of
// their frames. The copy matters: ReplacePageFrame rewrites frame slots
// in place (copy-on-write shadows), and callers walk the returned slice
// outside the file lock.
func (f *File) frameRange(first, n int) ([]FrameID, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if first < 0 || n < 0 || first+n > len(f.frames) {
		return nil, fmt.Errorf("%w: pages [%d,%d) of %d-page file %q",
			ErrBadFileRange, first, first+n, len(f.frames), f.name)
	}
	return append([]FrameID(nil), f.frames[first:first+n]...), nil
}

// PageData returns the 4 KiB contents of file page i, bypassing any
// virtual mapping — the equivalent of writing to the main-memory file
// through a second full mapping. The returned slice aliases physical
// memory: writes are immediately visible through every mapping.
func (f *File) PageData(i int) ([]byte, error) {
	fr, err := f.frame(i)
	if err != nil {
		return nil, err
	}
	return f.kernel.frameData(fr), nil
}

// ReplacePageFrame installs a fresh physical frame behind file page i,
// initialized with a copy of the page's current contents, and returns the
// displaced frame — the copy-on-write primitive of the snapshot write
// path. The old frame is NOT returned to the allocator: readers holding
// translations resolved before the replacement keep reading its (now
// frozen) contents, and the caller frees it via Kernel.FreeFrame once no
// such reader can remain. Existing page-table entries still point at the
// old frame; callers repoint the translations they own (see
// AddressSpace.RepointPage) — future mmaps of the page resolve to the new
// frame automatically.
func (f *File) ReplacePageFrame(i int) (old FrameID, data []byte, err error) {
	nf, err := f.kernel.allocFrame()
	if err != nil {
		return 0, nil, err
	}
	f.mu.Lock()
	if i < 0 || i >= len(f.frames) {
		f.mu.Unlock()
		f.kernel.freeFrame(nf)
		return 0, nil, fmt.Errorf("%w: page %d of %d-page file %q", ErrBadFileRange, i, len(f.frames), f.name)
	}
	old = f.frames[i]
	data = f.kernel.frameData(nf)
	copy(data, f.kernel.frameData(old))
	f.frames[i] = nf
	f.mu.Unlock()
	return old, data, nil
}
