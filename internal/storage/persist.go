package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/asv-db/asv/internal/vmsim"
)

// Serialization format: an 8-byte magic, the page count, the raw pages in
// order, and a trailing CRC-32 (Castagnoli) over the page data. Views are
// deliberately not persisted: they are an adaptive cache that the engine
// regrows from the workload, and their virtual addresses are meaningless
// across processes.
const persistMagic = "ASVCOL01"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the column to w and returns the number of bytes
// written. The column must not be mutated concurrently.
func (c *Column) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var written int64

	if _, err := bw.WriteString(persistMagic); err != nil {
		return written, err
	}
	written += int64(len(persistMagic))

	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(c.numPages))
	if _, err := bw.Write(hdr[:]); err != nil {
		return written, err
	}
	written += 8

	crc := crc32.New(crcTable)
	for p := 0; p < c.numPages; p++ {
		pg, err := c.PageBytes(p)
		if err != nil {
			return written, err
		}
		if _, err := bw.Write(pg); err != nil {
			return written, err
		}
		_, _ = crc.Write(pg) //asv:ignore-err hash.Hash.Write never fails
		written += PageSize
	}

	binary.LittleEndian.PutUint64(hdr[:], uint64(crc.Sum32()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return written, err
	}
	written += 8
	return written, bw.Flush()
}

// readAheadPages bounds how far ReadColumn grows the backing file past
// the pages it has read: one vmsim arena chunk.
const readAheadPages = 4096

// ReadColumn materializes a column previously serialized with WriteTo,
// creating its backing file and full view in the given kernel and address
// space under the given name. The page count in the header is only a
// claim: the file grows in step with the page data actually read, never
// more than readAheadPages ahead, so a short or lying stream fails before
// the kernel allocates — and keeps, since its arena never shrinks — the
// memory the header asks for. The full view is mapped only once the
// checksum verifies. Bytes after the checksum are rejected, and so is a
// page whose zone does not contain its values (checkZone).
func ReadColumn(k *vmsim.Kernel, as *vmsim.AddressSpace, name string, r io.Reader) (*Column, error) {
	br := bufio.NewReaderSize(r, 1<<20)

	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: reading magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("storage: bad magic %q (not an ASV column file)", magic)
	}

	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("storage: reading page count: %w", err)
	}
	claimed := binary.LittleEndian.Uint64(hdr[:])
	const maxPages = 1 << 28 // 1 TiB column: refuse obviously corrupt headers
	if claimed == 0 || claimed > maxPages {
		return nil, fmt.Errorf("storage: implausible page count %d", claimed)
	}
	numPages := int(claimed)

	f, err := k.CreateFile(name, 0)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Column, error) {
		_ = k.RemoveFile(name) //asv:ignore-err unwinding a failed load; the load error is returned
		return nil, err
	}
	crc := crc32.New(crcTable)
	for p, grown := 0, 0; p < numPages; p++ {
		if p == grown {
			grown = min(numPages, p+readAheadPages)
			if err := f.Truncate(grown); err != nil {
				return fail(err)
			}
		}
		pg, err := f.PageData(p)
		if err != nil {
			return fail(err)
		}
		if _, err := io.ReadFull(br, pg); err != nil {
			return fail(fmt.Errorf("storage: reading page %d: %w", p, err))
		}
		if err := checkZone(p, pg); err != nil {
			return fail(err)
		}
		_, _ = crc.Write(pg) //asv:ignore-err hash.Hash.Write never fails
	}
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fail(fmt.Errorf("storage: reading checksum: %w", err))
	}
	if want := binary.LittleEndian.Uint64(hdr[:]); want != uint64(crc.Sum32()) {
		return fail(fmt.Errorf("storage: checksum mismatch (file %#x, computed %#x)", want, crc.Sum32()))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("storage: trailing data after the checksum")
		}
		return fail(err)
	}
	c, err := mapColumn(k, as, f, name, numPages)
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// checkZone refuses a page whose header zone does not contain its values:
// an adaptive query would skip the values outside it (ZoneScan), and view
// creation would leave the page out of a view it belongs to. A wider zone
// is accepted; it only narrows candidate ranges.
func checkZone(p int, pg []byte) error {
	zmin, zmax := Zone(pg)
	vmin, vmax := PageMinMax(pg)
	if zmin > vmin || zmax < vmax {
		return fmt.Errorf("storage: page %d: zone [%d, %d] does not contain its values [%d, %d]", p, zmin, zmax, vmin, vmax)
	}
	return nil
}
