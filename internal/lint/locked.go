package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The locked analyzer enforces the engine-lock calling discipline: a
// function that requires a lock mode (annotated //asv:locked=<mode> or
// following the *Locked naming convention) may only be called where
// that mode is held. Modes are established lexically — an acquire call
// (//asv:acquires, or the built-in sync mutex methods) holds from its
// position to the matching release call or the end of the function
// (deferred releases simply extend to the end) — and flow through the
// call graph via the callee annotations: a function annotated
// //asv:locked=exclusive holds "exclusive" throughout its body, since
// every legal caller already held it.
//
// Two more checks ride on the same mode intervals: blocking operations
// while the exclusive mode is held (channel sends/receives/selects,
// ranging over a channel, time.Sleep, sync.Cond.Wait,
// sync.WaitGroup.Wait, and calls to methods named Sync — everything
// that can stall every other holder of the lock behind it), and nested
// acquisition (taking either engine-lock mode while one is held, which
// can self-deadlock a sync.RWMutex: a recursive RLock waits behind a
// queued Lock that waits for the outer RLock).
//
// Function literals inherit the modes held at their lexical position:
// callbacks and deferred calls run where they appear, under the mode in
// effect there. A literal that truly escapes the critical section needs
// an //asv:allow=locked line with the reason.
func runLocked(m *Module) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range m.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				diags = append(diags, m.checkLockedFunc(pkg, fd)...)
			}
		}
	}
	return diags
}

type lockEvent struct {
	pos   token.Pos
	mode  string
	delta int
	// end caps the event's lexical effect: an event inside an if-branch
	// that terminates the function (early-return unlock, lock-fail-return)
	// is invisible to positions past the branch — that path never falls
	// through to them. NoPos means the effect runs to the function end.
	end token.Pos
}

func isEngineMode(mode string) bool {
	return mode == modeShared || mode == modeExclusive
}

// satisfies reports whether the held mode set meets a requirement.
// Exclusive satisfies shared (sole occupancy subsumes it); the generic
// modes are strict: "mu" needs a mutex, "any" needs something, and
// neither is implied by the other.
func satisfies(held map[string]bool, req string) bool {
	switch req {
	case modeAny:
		return len(held) > 0
	case modeMu:
		return held[modeMu]
	default:
		return held[req] || held[modeExclusive]
	}
}

func (m *Module) checkLockedFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	base := make(map[string]bool)
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		switch req := m.requirementOf(obj); req {
		case "":
		case modeAny:
			base[modeAny] = true
		default:
			base[req] = true
		}
	}

	// Collect acquire/release events in source order. Deferred calls are
	// skipped: a deferred release runs at return, so the acquired mode
	// simply extends to the end of the function. Events inside an
	// if-branch that ends in return or panic are capped at the branch
	// end — the early-exit idiom (`if done { mu.Unlock(); return }`)
	// must not leak its unlock onto the fall-through path.
	var events []lockEvent
	var collect func(n ast.Node, end token.Pos)
	collect = func(n ast.Node, end token.Pos) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch nn := x.(type) {
			case *ast.DeferStmt:
				return false
			case *ast.IfStmt:
				if nn.Init != nil {
					collect(nn.Init, end)
				}
				collect(nn.Cond, end)
				bodyEnd := end
				if terminates(nn.Body) {
					bodyEnd = nn.Body.End()
				}
				collect(nn.Body, bodyEnd)
				if nn.Else != nil {
					elseEnd := end
					if b, ok := nn.Else.(*ast.BlockStmt); ok && terminates(b) {
						elseEnd = b.End()
					}
					collect(nn.Else, elseEnd)
				}
				return false
			case *ast.CallExpr:
				if f := calleeFunc(pkg.Info, nn); f != nil {
					facts := m.factsOf(f)
					if facts.acquires != "" {
						events = append(events, lockEvent{nn.Pos(), facts.acquires, +1, end})
					}
					if facts.releases != "" {
						events = append(events, lockEvent{nn.Pos(), facts.releases, -1, end})
					}
				}
			}
			return true
		})
	}
	collect(fd.Body, token.NoPos)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	heldAt := func(p token.Pos) map[string]bool {
		held := make(map[string]bool, len(base)+2)
		for mode := range base {
			held[mode] = true
		}
		counts := make(map[string]int)
		for _, e := range events {
			if e.pos >= p {
				break
			}
			if e.end != token.NoPos && p >= e.end {
				continue
			}
			counts[e.mode] += e.delta
		}
		for mode, c := range counts {
			if c > 0 {
				held[mode] = true
			}
		}
		return held
	}
	exclusiveAt := func(p token.Pos) bool { return heldAt(p)[modeExclusive] }

	var diags []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:      m.fset.Position(pos),
			Analyzer: "locked",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	blockDiag := func(pos token.Pos, what string) {
		if exclusiveAt(pos) {
			report(pos, "%s while the exclusive mode is held stalls every other holder of the lock", what)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			f := calleeFunc(pkg.Info, nn)
			if f == nil {
				return true
			}
			if req := m.requirementOf(f); req != "" {
				if held := heldAt(nn.Pos()); !satisfies(held, req) {
					report(nn.Pos(), "call to %s requires lock mode %q, but %s holds %s",
						f.Name(), req, fd.Name.Name, heldSetString(held))
				}
			}
			facts := m.factsOf(f)
			if isEngineMode(facts.acquires) {
				held := heldAt(nn.Pos())
				if held[modeShared] || held[modeExclusive] {
					report(nn.Pos(), "acquiring the %s mode while the lock is already held can self-deadlock", facts.acquires)
				}
			}
			if isBlockingCall(f) {
				blockDiag(nn.Pos(), "calling "+f.Name())
			}
		case *ast.SendStmt:
			blockDiag(nn.Pos(), "channel send")
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW {
				blockDiag(nn.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			blockDiag(nn.Pos(), "select")
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[nn.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					blockDiag(nn.Pos(), "ranging over a channel")
				}
			}
		}
		return true
	})
	return diags
}

// terminates reports whether a block's last statement exits the
// function: a return, or a call to panic. Branch statements (break,
// continue, goto) are deliberately not counted — a continue re-enters
// the loop, where a lexically later position is reachable again.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isBlockingCall reports calls that can stall indefinitely and must not
// run while the exclusive mode is held.
func isBlockingCall(f *types.Func) bool {
	switch f.FullName() {
	case "time.Sleep", "(*sync.Cond).Wait", "(*sync.WaitGroup).Wait":
		return true
	}
	return f.Name() == "Sync"
}

func heldSetString(held map[string]bool) string {
	if len(held) == 0 {
		return "no lock"
	}
	modes := make([]string, 0, len(held))
	for mode := range held {
		modes = append(modes, mode)
	}
	sort.Strings(modes)
	return strings.Join(modes, "+")
}
