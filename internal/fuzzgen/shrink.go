package fuzzgen

// Greedy program shrinking: when a seed fails, try successively smaller
// variants of its program — drop whole threads, then whole features (gate,
// slots, globals), then individual statements, then sub-expressions — and
// keep any variant that still reproduces the failure. What "reproduces" means
// is the caller's: the differential check (internal/simtest) re-runs the
// failing stage, whose schedule derives from the seed alone, so every
// candidate replays the identical scenario.

// DefaultShrinkBudget bounds how many reproduction checks one shrink run may
// spend.
const DefaultShrinkBudget = 300

// Shrink minimizes p while reproduces holds, spending at most budget checks
// (DefaultShrinkBudget when budget <= 0). It returns the smallest candidate
// that reproduced, or p itself when none did.
func Shrink(p *Prog, reproduces func(*Prog) bool, budget int) *Prog {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	sh := &shrinker{reproduces: reproduces, budget: budget, best: p}
	for {
		improved := false
		if sh.dropSpawns() {
			improved = true
		}
		if sh.dropGate() {
			improved = true
		}
		if sh.dropSlots() {
			improved = true
		}
		if sh.dropGlobals() {
			improved = true
		}
		if sh.dropStmts() {
			improved = true
		}
		if sh.simplifyExprs() {
			improved = true
		}
		if !improved || sh.checks >= sh.budget {
			return sh.best
		}
	}
}

type shrinker struct {
	reproduces func(*Prog) bool
	checks     int
	budget     int
	best       *Prog
}

// try checks a candidate; one that reproduces becomes the new best.
func (s *shrinker) try(cand *Prog) bool {
	if s.checks >= s.budget {
		return false
	}
	s.checks++
	if !s.reproduces(cand) {
		return false
	}
	s.best = cand
	return true
}

func (s *shrinker) dropSpawns() bool {
	improved := false
	for i := len(s.best.Spawns) - 1; i >= 0; i-- {
		if i >= len(s.best.Spawns) {
			continue
		}
		cand := s.best.Clone()
		cand.Spawns = append(cand.Spawns[:i], cand.Spawns[i+1:]...)
		if s.try(cand) {
			improved = true
		}
	}
	return improved
}

func (s *shrinker) dropGate() bool {
	if !s.best.Gate {
		return false
	}
	cand := s.best.Clone()
	cand.Gate = false
	removeStmts(cand, func(st Stmt) bool {
		switch st.(type) {
		case *BumpStmt, *AwaitStmt:
			return true
		}
		return false
	})
	return s.try(cand)
}

func (s *shrinker) dropSlots() bool {
	if !s.best.Slots {
		return false
	}
	cand := s.best.Clone()
	cand.Slots = false
	removeStmts(cand, func(st Stmt) bool {
		switch st.(type) {
		case *SlotWriteStmt, *SlotDumpStmt:
			return true
		}
		return false
	})
	return s.try(cand)
}

func (s *shrinker) dropGlobals() bool {
	improved := false
	for i := len(s.best.Globals) - 1; i >= 0; i-- {
		if i >= len(s.best.Globals) {
			continue
		}
		cand := s.best.Clone()
		victim := cand.Globals[i]
		cand.Globals = append(cand.Globals[:i], cand.Globals[i+1:]...)
		removeStmts(cand, func(st Stmt) bool {
			switch x := st.(type) {
			case *UpdStmt:
				return x.Global == victim
			case *PrintGlobalStmt:
				return x.Global == victim
			}
			return false
		})
		if s.try(cand) {
			improved = true
		}
	}
	return improved
}

// dropStmts tries removing every individual statement, last first. Bumps are
// exempt: removing one worker's barrier arrival while awaits remain would
// manufacture a deadlock unrelated to the original failure (the gate is
// instead dropped wholesale by dropGate).
func (s *shrinker) dropStmts() bool {
	improved := false
	for i := countDroppable(s.best) - 1; i >= 0; i-- {
		if i >= countDroppable(s.best) {
			continue
		}
		cand := s.best.Clone()
		if !dropNthDroppable(cand, i) {
			continue
		}
		if s.try(cand) {
			improved = true
		}
	}
	return improved
}

// simplifyExprs tries, for every expression node, replacing it with 0 and
// (failing that) hoisting its first operand.
func (s *shrinker) simplifyExprs() bool {
	improved := false
	for i := countExprs(s.best) - 1; i >= 0; i-- {
		if i >= countExprs(s.best) {
			continue
		}
		for _, mode := range []int{exprToZero, exprHoist} {
			cand := s.best.Clone()
			if !editNthExpr(cand, i, mode) {
				continue
			}
			if s.try(cand) {
				improved = true
				break
			}
		}
	}
	return improved
}

// forEachBlock visits every statement block in a deterministic order, with
// write access (the visitor may replace the slice).
func forEachBlock(p *Prog, fn func(blk *[]Stmt)) {
	var walk func(blk *[]Stmt)
	walk = func(blk *[]Stmt) {
		fn(blk)
		for _, st := range *blk {
			switch x := st.(type) {
			case *ForStmt:
				walk(&x.Body)
			case *IfStmt:
				walk(&x.Then)
				if x.Else != nil {
					walk(&x.Else)
				}
			case *LockStmt:
				walk(&x.Body)
			}
		}
	}
	for _, w := range p.Workers {
		walk(&w.Body)
	}
	walk(&p.MainMid)
	walk(&p.Epi)
}

func removeStmts(p *Prog, victim func(Stmt) bool) {
	forEachBlock(p, func(blk *[]Stmt) {
		kept := (*blk)[:0]
		for _, st := range *blk {
			if !victim(st) {
				kept = append(kept, st)
			}
		}
		*blk = kept
	})
}

func droppable(st Stmt) bool {
	_, isBump := st.(*BumpStmt)
	return !isBump
}

func countDroppable(p *Prog) int {
	n := 0
	forEachBlock(p, func(blk *[]Stmt) {
		for _, st := range *blk {
			if droppable(st) {
				n++
			}
		}
	})
	return n
}

func dropNthDroppable(p *Prog, n int) bool {
	removed := false
	idx := 0
	forEachBlock(p, func(blk *[]Stmt) {
		if removed {
			return
		}
		for i, st := range *blk {
			if !droppable(st) {
				continue
			}
			if idx == n {
				*blk = append(append([]Stmt(nil), (*blk)[:i]...), (*blk)[i+1:]...)
				removed = true
				return
			}
			idx++
		}
	})
	return removed
}

// Expression edit modes.
const (
	exprToZero = iota // replace the node with the literal 0
	exprHoist         // replace the node with its first operand
)

// stmtExprs gives write access to a statement's root expressions.
func stmtExprs(st Stmt, fn func(get Expr, set func(Expr))) {
	switch x := st.(type) {
	case *DeclStmt:
		fn(x.E, func(e Expr) { x.E = e })
	case *AssignStmt:
		fn(x.E, func(e Expr) { x.E = e })
	case *IfStmt:
		fn(x.Cond, func(e Expr) { x.Cond = e })
	case *UpdStmt:
		fn(x.E, func(e Expr) { x.E = e })
	case *PrintStmt:
		fn(x.E, func(e Expr) { x.E = e })
	case *SlotWriteStmt:
		fn(x.E, func(e Expr) { x.E = e })
	}
}

func countExprs(p *Prog) int {
	n := 0
	var walkE func(e Expr)
	walkE = func(e Expr) {
		n++
		switch x := e.(type) {
		case *BinExpr:
			walkE(x.X)
			walkE(x.Y)
		case *UnExpr:
			walkE(x.X)
		case *MixExpr:
			walkE(x.A)
			walkE(x.B)
		}
	}
	forEachBlock(p, func(blk *[]Stmt) {
		for _, st := range *blk {
			stmtExprs(st, func(e Expr, _ func(Expr)) { walkE(e) })
		}
	})
	return n
}

// editNthExpr applies mode to the n-th expression node (pre-order across the
// whole program); it reports whether the edit actually changed anything.
func editNthExpr(p *Prog, n, mode int) bool {
	idx := 0
	changed := false
	var edit func(e Expr) Expr
	edit = func(e Expr) Expr {
		cur := idx
		idx++
		if cur == n {
			switch mode {
			case exprToZero:
				if l, ok := e.(*Lit); ok && l.V == 0 {
					return e // already minimal
				}
				changed = true
				return &Lit{V: 0}
			case exprHoist:
				switch x := e.(type) {
				case *BinExpr:
					changed = true
					return x.X
				case *UnExpr:
					changed = true
					return x.X
				case *MixExpr:
					changed = true
					return x.A
				}
			}
			return e
		}
		switch x := e.(type) {
		case *BinExpr:
			x.X = edit(x.X)
			x.Y = edit(x.Y)
		case *UnExpr:
			x.X = edit(x.X)
		case *MixExpr:
			x.A = edit(x.A)
			x.B = edit(x.B)
		}
		return e
	}
	forEachBlock(p, func(blk *[]Stmt) {
		for _, st := range *blk {
			stmtExprs(st, func(e Expr, set func(Expr)) { set(edit(e)) })
		}
	})
	return changed
}
