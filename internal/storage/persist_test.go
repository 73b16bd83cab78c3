package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"github.com/asv-db/asv/internal/dist"
	"github.com/asv-db/asv/internal/vmsim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	src, err := NewColumn(k, as, "src", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Fill(dist.NewSine(5, 0, 1_000_000, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SetValue(123, 4567); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := src.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := int64(8 + 8 + 32*PageSize + 8)
	if n != wantLen || int64(buf.Len()) != wantLen {
		t.Fatalf("wrote %d bytes, want %d", n, wantLen)
	}

	dst, err := ReadColumn(k, as, "dst", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if dst.NumPages() != src.NumPages() {
		t.Fatalf("NumPages = %d", dst.NumPages())
	}
	for r := 0; r < src.Rows(); r += 97 {
		a, _ := src.Value(r)
		b, _ := dst.Value(r)
		if a != b {
			t.Fatalf("row %d: %d != %d", r, a, b)
		}
	}
	// Spot check the special value and a full-scan equivalence.
	v, _ := dst.Value(123)
	if v != 4567 {
		t.Fatalf("row 123 = %d", v)
	}
	c1, s1, _ := src.FullScan(0, 500_000)
	c2, s2, _ := dst.FullScan(0, 500_000)
	if c1 != c2 || s1 != s2 {
		t.Fatal("full scans disagree after round trip")
	}
}

func TestReadColumnRejectsCorruption(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	src, _ := NewColumn(k, as, "src", 4)
	_ = src.Fill(dist.NewUniform(1, 0, 100))
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
		{"flipped data bit", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[100] ^= 1
			return c
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }},
		{"insane page count", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			for i := 8; i < 16; i++ {
				c[i] = 0xFF
			}
			return c
		}},
		{"empty", func([]byte) []byte { return nil }},
		{"trailing byte", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k2 := vmsim.NewKernel(0)
			as2 := k2.NewAddressSpace()
			_, err := ReadColumn(k2, as2, "c", bytes.NewReader(tc.mutate(good)))
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			// No leaked frames after a failed load.
			if k2.FramesInUse() != 0 {
				t.Fatalf("FramesInUse = %d after failed load", k2.FramesInUse())
			}
		})
	}
}

// TestReadColumnGrowsWithData pins that ReadColumn does not trust the
// header's page count: a stream that claims 16 384 pages (64 MiB) but
// carries none fails after taking at most one read-ahead chunk of
// frames, and leaks none of them.
func TestReadColumnGrowsWithData(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	var hdr [16]byte
	copy(hdr[:], persistMagic)
	binary.LittleEndian.PutUint64(hdr[8:], 16384)
	if _, err := ReadColumn(k, as, "c", bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("a header with no page data loaded")
	}
	if hw := k.MemStats().FramesHighWater; hw > 4096 {
		t.Fatalf("FramesHighWater = %d after a load that supplied no page, want <= 4096", hw)
	}
	if n := k.FramesInUse(); n != 0 {
		t.Fatalf("FramesInUse = %d after a failed load", n)
	}

	// A column past one read-ahead step loads byte for byte, taking
	// exactly its own pages.
	const pages = 4096 + 100
	src, err := NewColumn(k, as, "src", pages)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillParallel(dist.NewSine(3, 0, 1_000_000, 64), 0); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if _, err := src.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	k2 := vmsim.NewKernel(0)
	dst, err := ReadColumn(k2, k2.NewAddressSpace(), "dst", bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("a reloaded column writes different bytes")
	}
	if hw := k2.MemStats().FramesHighWater; hw != pages {
		t.Fatalf("FramesHighWater = %d after loading %d pages", hw, pages)
	}
}

// FuzzReadColumn feeds arbitrary bytes to ReadColumn, each input on a
// fresh kernel. An input either fails, having taken no more frames than
// the pages it supplied plus one read-ahead chunk and leaking none, or
// loads a column whose every page zone contains the page's values and
// whose WriteTo reproduces the input byte for byte.
func FuzzReadColumn(f *testing.F) {
	k := vmsim.NewKernel(0)
	src, err := NewColumn(k, k.NewAddressSpace(), "src", 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := src.Fill(dist.NewUniform(1, 0, 1000)); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-9])           // cut inside the checksum
	f.Add(good[:16+PageSize+100])       // cut inside the second page
	f.Add(append(bytes.Clone(good), 0)) // one byte past the checksum
	flipped := bytes.Clone(good)
	flipped[100] ^= 1
	f.Add(flipped)
	inflated := bytes.Clone(good)
	binary.LittleEndian.PutUint64(inflated[8:], 1<<20)
	f.Add(inflated)
	narrow := bytes.Clone(good) // page 1's zone moved past its values, checksum recomputed
	SetZone(narrow[16+PageSize:], 2000, 3000)
	binary.LittleEndian.PutUint64(narrow[len(narrow)-8:], uint64(crc32.Checksum(narrow[16:len(narrow)-8], crcTable)))
	f.Add(narrow)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		k := vmsim.NewKernel(0)
		col, err := ReadColumn(k, k.NewAddressSpace(), "c", bytes.NewReader(data))
		supplied := max(0, len(data)-16) / PageSize
		if hw := k.MemStats().FramesHighWater; hw > supplied+readAheadPages {
			t.Fatalf("FramesHighWater = %d for an input of %d whole pages", hw, supplied)
		}
		if err != nil {
			if n := k.FramesInUse(); n != 0 {
				t.Fatalf("FramesInUse = %d after a failed load (%v)", n, err)
			}
			return
		}
		for p := 0; p < col.NumPages(); p++ {
			pg, err := col.PageBytes(p)
			if err != nil {
				t.Fatal(err)
			}
			zmin, zmax := Zone(pg)
			if vmin, vmax := PageMinMax(pg); zmin > vmin || zmax < vmax {
				t.Fatalf("page %d loaded with zone [%d, %d] over values [%d, %d]", p, zmin, zmax, vmin, vmax)
			}
		}
		var out bytes.Buffer
		if _, err := col.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("loaded %d bytes, WriteTo gave back %d different ones", len(data), out.Len())
		}
		if err := col.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadColumnRefusesNarrowZone: a page whose header zone leaves out
// some of its values is refused, with an error naming the page; a zone
// wider than the values loads.
func TestReadColumnRefusesNarrowZone(t *testing.T) {
	k := vmsim.NewKernel(0)
	src, err := NewColumn(k, k.NewAddressSpace(), "src", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Fill(dist.NewUniform(1, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	load := func(zmin, zmax uint64) (*Column, error) {
		t.Helper()
		pg, _ := src.PageBytes(3)
		SetZone(pg, zmin, zmax)
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		k2 := vmsim.NewKernel(0)
		col, err := ReadColumn(k2, k2.NewAddressSpace(), "c", &buf)
		if err != nil && k2.FramesInUse() != 0 {
			t.Fatalf("FramesInUse = %d after a refused load", k2.FramesInUse())
		}
		return col, err
	}
	pg, _ := src.PageBytes(3)
	vmin, vmax := PageMinMax(pg)
	for _, z := range [][2]uint64{{2000, 3000}, {vmin, vmax - 1}, {vmin + 1, vmax}, {500, 500}} {
		if _, err := load(z[0], z[1]); err == nil || !strings.Contains(err.Error(), "page 3") {
			t.Fatalf("zone [%d, %d] over values [%d, %d]: err = %v, want a refusal naming page 3", z[0], z[1], vmin, vmax, err)
		}
	}
	col, err := load(0, 5000)
	if err != nil {
		t.Fatalf("a wider zone was refused: %v", err)
	}
	c1, s1, _ := src.FullScan(0, 1000)
	c2, s2, _ := col.FullScan(0, 1000)
	if c1 != c2 || s1 != s2 || c1 != src.Rows() {
		t.Fatalf("full scans (%d,%d) and (%d,%d) of %d rows", c1, s1, c2, s2, src.Rows())
	}
}

func TestReadColumnNameCollision(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	src, _ := NewColumn(k, as, "col", 4)
	_ = src.Fill(dist.NewUniform(1, 0, 100))
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadColumn(k, as, "col", &buf); err == nil {
		t.Fatal("load over an existing column name succeeded")
	}
}

// errWriter fails after n bytes, exercising WriteTo error paths.
type errWriter struct{ left int }

func (w *errWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, io.ErrShortWrite
	}
	w.left -= len(p)
	return len(p), nil
}

func TestWriteToPropagatesErrors(t *testing.T) {
	k := vmsim.NewKernel(0)
	as := k.NewAddressSpace()
	src, _ := NewColumn(k, as, "src", 512)
	// bufio flushes once its 1 MiB buffer fills; fail on that flush.
	if _, err := src.WriteTo(&errWriter{left: 4096}); err == nil {
		t.Fatal("write error swallowed")
	}
}
