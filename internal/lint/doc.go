// Package lint is asvlint's driver and analyzer suite: five
// project-specific static analyzers that machine-check the concurrency
// and resource invariants the engine's correctness depends on but no
// compiler enforces.
//
// The analyzers:
//
//   - locked: a function whose name ends in "Locked", or that carries an
//     //asv:locked=<mode> directive, may only be called while the caller
//     holds that lock mode. The engine-lock modes (shared, exclusive)
//     propagate from the engineLock acquire sites (annotated
//     //asv:acquires=<mode>); the generic mode "mu" is established by
//     sync.Mutex/sync.RWMutex Lock calls. The analyzer also flags
//     blocking operations — channel sends/receives/selects, time.Sleep,
//     sync.Cond.Wait, sync.WaitGroup.Wait, and calls to methods named
//     Sync — made while the exclusive mode is held, and nested
//     acquisition (taking either engine-lock mode while one is held).
//
//   - immutable: a type annotated //asv:immutable rejects field
//     assignments outside the file that declares it (the constructor
//     file). Published engineState, viewset capture entries and
//     ViewSpec stay immutable-after-publish by machine check instead of
//     by convention.
//
//   - paired: a flow-insensitive escape check that a function which
//     acquires a refcounted or allocated resource (view Retain,
//     CaptureSnapshot, frame allocation, Snapshot handles) also
//     releases it (Release, FreeFrame, Close, ReleaseViews) somewhere
//     in the same function, or explicitly transfers ownership with an
//     //asv:handoff line directive. Snapshot methods of the obs
//     telemetry package are exempt: they return plain value copies,
//     not handles.
//
//   - atomicfield: a struct field accessed through a sync/atomic
//     function anywhere in the module must be accessed atomically
//     everywhere — a single plain read of a field that is elsewhere
//     atomic.AddUint64'd is a data race the race detector only catches
//     probabilistically. The analyzer also rejects struct fields that
//     hold an obs telemetry instrument (Counter, Histogram) by value:
//     instruments are shared atomics behind pointer handles stored once
//     at construction, and a value field silently forks the counts
//     whenever the struct is copied.
//
//   - droppederr: an error result discarded by assigning it to the
//     blank identifier requires an //asv:ignore-err <reason> directive;
//     the reason documents why dropping is safe.
//
// The driver is zero-dependency: it loads packages with stdlib
// go/parser + go/types, resolving imports through compiler export data
// produced by "go list -export -json -deps" (no golang.org/x/tools
// import, preserving the module's zero-dep guarantee). Test files are
// outside its scope — it analyzes exactly the GoFiles the compiler
// builds.
//
// Directive grammar (all are //-comments with no space after //, so
// gofmt treats them as directives):
//
//	//asv:locked=shared|exclusive|mu|any   (func doc) caller must hold the mode
//	//asv:acquires=shared|exclusive|mu     (func doc) calling this acquires the mode
//	//asv:releases=shared|exclusive|mu     (func doc) calling this releases the mode
//	//asv:immutable                        (type doc) fields writable only in declaring file
//	//asv:handoff <reason>                 (line) resource ownership transfers; paired check stops
//	//asv:ignore-err <reason>              (line) discarded error is intentional
//	//asv:allow=<analyzer> <reason>        (line) suppress one analyzer's finding on this line
//
// Line directives attach to their own line and the line directly
// below, so both trailing comments and a comment line above the
// statement work. Malformed or unknown //asv: directives are
// themselves findings (analyzer "directive"), so a typo can't silently
// disable a check.
package lint
