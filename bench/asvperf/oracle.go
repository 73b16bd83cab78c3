package main

import (
	"fmt"
	"sort"

	asv "github.com/asv-db/asv"
	"github.com/asv-db/asv/internal/storage"
	"github.com/asv-db/asv/internal/vmsim"
)

// sampleEvery is the deterministic verification sample: every 64th query
// of a client, plus its first and last.
const sampleEvery = 64

// readbackRows is how many written rows are read back with Value.
const readbackRows = 256

// sample is one reply kept for the oracle. version is the number of write
// batches the instance had applied when the query ran.
type sample struct {
	q       query
	a       answer
	version int
}

type batch struct {
	tenant int
	rows   []asv.RowWrite
}

// ledger is everything one instance was asked that the oracle needs: what
// its columns were filled with, every write in order, and the sampled
// replies. It is verified after the timed phase, and after mem_sys_mb is
// read, because the oracle allocates a second copy of every column.
type ledger struct {
	gens    []genSpec // one per tenant
	batches []batch
	samples []sample
}

// add moves a phase's sampled replies and writes into the ledger. A phase
// counts its samples' versions from its own start; the writes of earlier
// phases come before them.
func (l *ledger) add(o *opLog) {
	for _, s := range o.samples {
		s.version += len(l.batches)
		l.samples = append(l.samples, s)
	}
	l.batches = append(l.batches, o.batches...)
	o.samples, o.batches = nil, nil
}

// verify re-answers every sampled query with storage.Column.FullScan on a
// physical column rebuilt from the generator and the write log, and reads
// up to readbackRows written rows back from the live target (nil when the
// instance is gone). It returns checks made and checks failed.
func (l *ledger) verify(live target) (checked, wrong int, err error) {
	twins := make([]*storage.Column, len(l.gens))
	for i, g := range l.gens {
		k := vmsim.NewKernel(0)
		if twins[i], err = storage.NewColumn(k, k.NewAddressSpace(), "oracle", g.pages); err != nil {
			return 0, 0, fmt.Errorf("oracle column: %w", err)
		}
		gen, err := g.generator()
		if err != nil {
			return 0, 0, err
		}
		if err := twins[i].FillParallel(gen, 0); err != nil {
			return 0, 0, fmt.Errorf("oracle fill: %w", err)
		}
	}
	applied := 0
	apply := func(upTo int) error {
		for ; applied < upTo; applied++ {
			b := l.batches[applied]
			for _, w := range b.rows {
				if _, err := twins[b.tenant].SetValue(w.Row, w.Value); err != nil {
					return fmt.Errorf("oracle write: %w", err)
				}
			}
		}
		return nil
	}

	sort.SliceStable(l.samples, func(i, j int) bool { return l.samples[i].version < l.samples[j].version })
	type key struct {
		tenant, version int
		lo, hi          uint64
	}
	type truth struct {
		count int
		sum   uint64
	}
	known := make(map[key]truth) // serve_http samples one hot set over and over
	for _, s := range l.samples {
		if err := apply(s.version); err != nil {
			return checked, wrong, err
		}
		k := key{s.q.tenant, s.version, s.q.lo, s.q.hi}
		want, ok := known[k]
		if !ok {
			if want.count, want.sum, err = twins[s.q.tenant].FullScan(s.q.lo, s.q.hi); err != nil {
				return checked, wrong, fmt.Errorf("oracle scan: %w", err)
			}
			known[k] = want
		}
		checked++
		if s.a.count != want.count || s.a.sum != want.sum || !s.a.consistent {
			wrong++
		}
	}
	if err := apply(len(l.batches)); err != nil {
		return checked, wrong, err
	}
	if live == nil {
		return checked, wrong, nil
	}
	read := 0
	for i := len(l.batches) - 1; i >= 0 && read < readbackRows; i-- {
		b := l.batches[i]
		for _, w := range b.rows {
			if read == readbackRows {
				break
			}
			want, err := twins[b.tenant].Value(w.Row)
			if err != nil {
				return checked, wrong, fmt.Errorf("oracle read: %w", err)
			}
			got, err := live.value(b.tenant, w.Row)
			read++
			checked++
			if err != nil || got != want {
				wrong++
			}
		}
	}
	return checked, wrong, nil
}
