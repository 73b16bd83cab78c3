// Package obspos seeds violations for the atomicfield analyzer's obs
// instrument-handle rule: raw instrument values held as struct fields
// instead of pointer handles. The clean forms alongside them — pointer
// handles, arrays of pointers, snapshot values — must stay silent, as
// must the paired analyzer on the value-copy Snapshot call.
package obspos

import "fixture.example/obs"

type pilot struct {
	flushes *obs.Counter      // pointer handle: clean
	holds   [3]*obs.Histogram // array of handles: clean
	last    obs.HistogramSnapshot

	lat   obs.Histogram  // want `\[atomicfield\] field lat holds a raw obs\.Histogram value`
	waits [2]obs.Counter // want `\[atomicfield\] field waits holds a raw obs\.Counter value`
}

// observe compiles fine against the raw fields — pointer-receiver
// methods auto-address them — which is exactly why the rule exists: a
// copy of pilot forks lat/waits without a diagnostic from the compiler.
func (p *pilot) observe(d uint64) {
	p.flushes.Add(1)
	p.lat.Observe(d)
	p.waits[0].Add(1)
}

// read exercises the paired analyzer's obs exemption: Snapshot here is
// a value copy, not an acquire, so no Close/ReleaseViews is owed.
func (p *pilot) read() uint64 {
	p.last = p.lat.Snapshot()
	return p.last.Count
}
