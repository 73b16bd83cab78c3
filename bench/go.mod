// The benchmark is a module of its own so that it is built from the
// benchmark's directory alone; the replace directive points it at the
// checkout it sits in, whose internal packages it may import because its
// module path lies below github.com/asv-db/asv.
module github.com/asv-db/asv/bench

go 1.24

require github.com/asv-db/asv v0.0.0

replace github.com/asv-db/asv => ../
