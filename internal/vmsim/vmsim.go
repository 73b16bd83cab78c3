// Package vmsim is a user-space simulation of the virtual-memory machinery
// that the paper builds on: physical main memory organized in 4 KiB frames,
// tmpfs-style main-memory files as user-space handles to physical memory,
// and per-process address spaces whose virtual pages can be re-pointed at
// arbitrary file pages at runtime via mmap with MAP_FIXED semantics
// ("memory rewiring", RUMA [15]).
//
// Why a simulator: the reproduction target is Go, whose runtime assumes it
// owns the process address space. Remapping pages under live Go pointers
// with real mmap(MAP_FIXED) races with the garbage collector and the
// allocator. vmsim therefore models the kernel objects explicitly:
//
//   - Kernel: owns the physical frame arena and the main-memory files.
//   - File: a growable sequence of frames (the /dev/shm file of §1.2).
//   - AddressSpace: a sorted set of VMAs (virtual memory areas) indexed by
//     a skiplist, plus a two-level page table. Mmap and Munmap perform the
//     same first-order work as the kernel: overlap resolution with VMA
//     split/shrink, adjacent-VMA merging, page-table population, and
//     map-count accounting against vm.max_map_count.
//
// Because the cost of a simulated mmap is dominated by VMA bookkeeping —
// exactly as in the kernel — the paper's optimization of mapping runs of
// consecutive qualifying pages in a single call (§2.3) has the same effect
// here: one VMA operation instead of k. Likewise, RenderMaps emits one line
// per VMA in the /proc/PID/maps text format, so clustered mappings yield a
// shorter maps file and cheaper parsing, reproducing the §3.4/§2.5 effect.
package vmsim

import (
	"errors"
	"fmt"
	"sync"
)

const (
	// PageSize is the size of a virtual or physical page in bytes. The
	// paper's layer "purely operates with 4KB small pages" (§3).
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12

	// framesPerChunk is how many frames each physical arena chunk holds
	// (16 MiB chunks). Chunked growth keeps previously handed-out frame
	// slices stable.
	framesPerChunk = 4096

	// DefaultMaxMapCount mirrors the Linux default for vm.max_map_count
	// (sysctl default 65530). The paper raises the limit from 2^16-1 to
	// 2^32-1 for its experiments (§3); the harness does the same via
	// SetMaxMapCount.
	DefaultMaxMapCount = 65530
)

// Addr is a virtual byte address.
type Addr uint64

// VPN is a virtual page number (Addr >> PageShift).
type VPN uint64

// FrameID identifies a physical frame.
type FrameID uint32

// Errors returned by kernel operations, named after their errno analogues.
var (
	// ErrInvalid corresponds to EINVAL: malformed arguments.
	ErrInvalid = errors.New("vmsim: invalid argument")
	// ErrNoMemory corresponds to ENOMEM: out of frames, address space, or
	// VMA slots (vm.max_map_count exceeded).
	ErrNoMemory = errors.New("vmsim: out of memory")
	// ErrFault corresponds to SIGSEGV: access to an unmapped address.
	ErrFault = errors.New("vmsim: page fault on unmapped address")
	// ErrExists is returned when creating a file whose name is taken.
	ErrExists = errors.New("vmsim: file exists")
	// ErrNotFound is returned when a named file does not exist.
	ErrNotFound = errors.New("vmsim: file not found")
	// ErrBadFileRange is returned when a mapping references pages beyond
	// the end of the backing file.
	ErrBadFileRange = errors.New("vmsim: mapping beyond end of file")
)

// Kernel owns the simulated physical memory and main-memory files. All
// methods are safe for concurrent use.
type Kernel struct {
	mu        sync.Mutex
	chunks    [][]byte // physical arena, framesPerChunk frames per chunk
	freeList  []FrameID
	nextFrame FrameID
	maxFrames FrameID
	files     map[string]*File
	nextInode uint64
	nextPID   int

	framesAllocated uint64 // cumulative
	framesFreed     uint64 // cumulative
}

// NewKernel creates a kernel that can hand out at most maxFrames physical
// frames (maxFrames <= 0 selects a generous default of 4 Mi frames, i.e.
// 16 GiB of simulated physical memory).
func NewKernel(maxFrames int) *Kernel {
	if maxFrames <= 0 {
		maxFrames = 4 << 20
	}
	return &Kernel{
		maxFrames: FrameID(maxFrames),
		files:     make(map[string]*File),
		nextInode: 2, // inode 1 is conventionally reserved
		nextPID:   1,
	}
}

// allocFrame hands out a zeroed frame. Caller must not hold k.mu.
func (k *Kernel) allocFrame() (FrameID, error) {
	k.mu.Lock()
	var f FrameID
	switch {
	case len(k.freeList) > 0:
		f = k.freeList[len(k.freeList)-1]
		k.freeList = k.freeList[:len(k.freeList)-1]
	case k.nextFrame < k.maxFrames:
		f = k.nextFrame
		k.nextFrame++
		if int(f)>>12 >= len(k.chunks) { // f / framesPerChunk
			k.chunks = append(k.chunks, make([]byte, framesPerChunk*PageSize))
		}
	default:
		k.mu.Unlock()
		return 0, fmt.Errorf("%w: physical frame limit %d reached", ErrNoMemory, k.maxFrames)
	}
	k.framesAllocated++
	k.mu.Unlock()

	// Demand-zero semantics: the kernel hands out zeroed pages. Do the
	// memset outside the lock; the frame is not yet visible to anyone else.
	d := k.frameData(f)
	for i := range d {
		d[i] = 0
	}
	return f, nil
}

// freeFrame returns a frame to the allocator.
func (k *Kernel) freeFrame(f FrameID) {
	k.mu.Lock()
	k.freeList = append(k.freeList, f)
	k.framesFreed++
	k.mu.Unlock()
}

// FreeFrame returns a frame displaced by File.ReplacePageFrame to the
// allocator. The caller asserts that no reader can still hold a
// translation or page slice resolved to the frame — the storage layer's
// epoch machinery frees retired frames only after every state that could
// reference them has drained.
func (k *Kernel) FreeFrame(f FrameID) { k.freeFrame(f) }

// frameData returns the 4 KiB backing slice of frame f. The slice stays
// valid for the lifetime of the kernel (chunks are never moved).
func (k *Kernel) frameData(f FrameID) []byte {
	chunk := int(f) / framesPerChunk
	off := (int(f) % framesPerChunk) * PageSize
	// chunks only ever grows and existing chunk headers are immutable, but
	// reading len(k.chunks) concurrently with append is racy; take the lock
	// for the slice header lookup only.
	k.mu.Lock()
	c := k.chunks[chunk]
	k.mu.Unlock()
	return c[off : off+PageSize : off+PageSize]
}

// FramesInUse returns the number of currently allocated frames.
func (k *Kernel) FramesInUse() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return int(k.nextFrame) - len(k.freeList)
}

// MemStats reports cumulative allocator activity.
type MemStats struct {
	FramesAllocated uint64 // cumulative allocations
	FramesFreed     uint64 // cumulative frees
	FramesInUse     int    // current
	FramesHighWater int    // arena size ever reached
}

// MemStats returns a snapshot of physical-memory accounting.
func (k *Kernel) MemStats() MemStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return MemStats{
		FramesAllocated: k.framesAllocated,
		FramesFreed:     k.framesFreed,
		FramesInUse:     int(k.nextFrame) - len(k.freeList),
		FramesHighWater: int(k.nextFrame),
	}
}
