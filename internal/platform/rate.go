package platform

import (
	"math/big"
	"sort"
)

// This file gives every platform kind the uniform method set the public
// repro.Platform interface is built on — Kind, Hash, Throughput,
// LowerBound (Validate lives with each type) — so chains, spiders,
// forks and trees are interchangeable behind one API. The
// divisible-load relaxation math (steady-state rates and the lower
// bounds derived from them) lives here because it depends on nothing
// but the platform model; every caller uses these methods directly.

// Kind names the platform's topology; the scheduling service keys its
// cache by the kind of a platform's solver form, and the wire envelope
// tags platforms with these strings.
func (ch Chain) Kind() string { return "chain" }

// Kind names the platform's topology (see Chain.Kind).
func (sp Spider) Kind() string { return "spider" }

// Kind names the platform's topology (see Chain.Kind).
func (f Fork) Kind() string { return "fork" }

// Kind names the platform's topology (see Chain.Kind).
func (t Tree) Kind() string { return "tree" }

// Hash returns the canonical fingerprint (HashChain).
func (ch Chain) Hash() Hash { return HashChain(ch) }

// Hash returns the canonical fingerprint (HashSpider).
func (sp Spider) Hash() Hash { return HashSpider(sp) }

// Hash returns the canonical fingerprint (HashFork).
func (f Fork) Hash() Hash { return HashFork(f) }

// Hash returns the canonical fingerprint (HashTree).
func (t Tree) Hash() Hash { return HashTree(t) }

// Throughput returns the exact steady-state task throughput of the
// chain: the maximum sustainable rate of tasks entering it, from the
// recursion
//
//	X_{p+1} = 0,   X_k = min(1/c_k, 1/w_k + X_{k+1})
//
// where 1/c_k caps what link k can carry and 1/w_k is what processor k
// consumes, the rest flowing deeper. This is the LP relaxation of the
// scheduling problem (tasks as divisible load); see the related work of
// §1 ([2], [5], [7]).
func (ch Chain) Throughput() (*big.Rat, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	rate := new(big.Rat) // X_{p+1} = 0
	for k := ch.Len(); k >= 1; k-- {
		// X_k = min(1/c_k, 1/w_k + X_{k+1}).
		withWork := new(big.Rat).Add(new(big.Rat).SetFrac64(1, int64(ch.Work(k))), rate)
		linkCap := new(big.Rat).SetFrac64(1, int64(ch.Comm(k)))
		if withWork.Cmp(linkCap) < 0 {
			rate = withWork
		} else {
			rate = linkCap
		}
	}
	return rate, nil
}

// Throughput returns the exact steady-state throughput of the spider:
// legs are saturated in ascending first-link latency (the
// bandwidth-centric allocation of [2]) under the master's one-port
// budget Σ_b r_b·c_{b,1} ≤ 1 with r_b ≤ leg b's chain rate. The greedy
// is optimal because it is a fractional knapsack: ascending c_{b,1} is
// ascending port-time cost per unit of throughput.
func (sp Spider) Throughput() (*big.Rat, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	type legRate struct {
		c1   int64
		rate *big.Rat
	}
	legs := make([]legRate, 0, sp.NumLegs())
	for _, leg := range sp.Legs {
		r, err := leg.Throughput()
		if err != nil {
			return nil, err
		}
		legs = append(legs, legRate{c1: int64(leg.Comm(1)), rate: r})
	}
	// Insertion sort by ascending c1 (legs are few).
	for i := 1; i < len(legs); i++ {
		for j := i; j > 0 && legs[j].c1 < legs[j-1].c1; j-- {
			legs[j], legs[j-1] = legs[j-1], legs[j]
		}
	}
	total := new(big.Rat)
	budget := new(big.Rat).SetInt64(1) // fraction of port time left
	for _, l := range legs {
		if budget.Sign() <= 0 {
			break
		}
		// r = min(l.rate, budget / c1).
		byPort := new(big.Rat).Quo(budget, new(big.Rat).SetInt64(l.c1))
		r := l.rate
		if byPort.Cmp(r) < 0 {
			r = byPort
		}
		total.Add(total, r)
		spent := new(big.Rat).Mul(r, new(big.Rat).SetInt64(l.c1))
		budget.Sub(budget, spent)
	}
	return total, nil
}

// Throughput returns the steady-state throughput of the fork's spider
// form.
func (f Fork) Throughput() (*big.Rat, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f.Spider().Throughput()
}

// Throughput returns the exact steady-state task throughput of the
// tree: the recursion of [2] where each node's send port is a
// fractional knapsack over its children,
//
//	X(node) = min(1/c, 1/w + Y(children)),
//	Y(children) = max Σ r_b  s.t.  Σ r_b·c_b ≤ 1, 0 ≤ r_b ≤ X(child b),
//
// and the master contributes Y over its roots. For unary trees this
// reduces to the chain recursion, for depth-1 trees to the spider
// bandwidth-centric allocation.
func (t Tree) Throughput() (*big.Rat, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var nodeRate func(n TreeNode) *big.Rat
	nodeRate = func(n TreeNode) *big.Rat {
		y := portKnapsack(n.Children, nodeRate)
		// X = min(1/c, 1/w + y).
		withWork := new(big.Rat).Add(new(big.Rat).SetFrac64(1, int64(n.Work)), y)
		linkCap := new(big.Rat).SetFrac64(1, int64(n.Comm))
		if withWork.Cmp(linkCap) < 0 {
			return withWork
		}
		return linkCap
	}
	return portKnapsack(t.Roots, nodeRate), nil
}

// portKnapsack solves the one-port fractional knapsack: children sorted
// by ascending link latency are saturated greedily within a unit port
// budget.
func portKnapsack(children []TreeNode, nodeRate func(TreeNode) *big.Rat) *big.Rat {
	type item struct {
		c    int64
		rate *big.Rat
	}
	items := make([]item, 0, len(children))
	for _, ch := range children {
		items = append(items, item{c: int64(ch.Comm), rate: nodeRate(ch)})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].c < items[j].c })
	total := new(big.Rat)
	budget := new(big.Rat).SetInt64(1)
	for _, it := range items {
		if budget.Sign() <= 0 {
			break
		}
		byPort := new(big.Rat).Quo(budget, new(big.Rat).SetInt64(it.c))
		r := it.rate
		if byPort.Cmp(r) < 0 {
			r = byPort
		}
		total.Add(total, r)
		budget.Sub(budget, new(big.Rat).Mul(r, new(big.Rat).SetInt64(it.c)))
	}
	return total
}

// ceilRatDiv returns ceil(n / rate) as a Time, i.e. the steady-state
// lower bound on the time to inject n tasks at the given rate.
func ceilRatDiv(n int, rate *big.Rat) Time {
	if rate.Sign() <= 0 {
		return MaxTime
	}
	// n / (a/b) = n*b / a.
	num := new(big.Int).Mul(big.NewInt(int64(n)), rate.Denom())
	quo, rem := new(big.Int).QuoRem(num, rate.Num(), new(big.Int))
	if rem.Sign() != 0 {
		quo.Add(quo, big.NewInt(1))
	}
	return Time(quo.Int64())
}

// SteadyStateBound returns the lower bound the LowerBound methods share:
// the larger of the steady-state bound ⌈n/rate⌉ and the best single-task
// completion solo (every schedule must finish its last task, which
// needs at least the fastest solo path). A solver that caches the rate
// and solo time derives every LowerBound(n) from them with one division.
func SteadyStateBound(n int, rate *big.Rat, solo Time) Time {
	if n <= 0 {
		return 0
	}
	return max(ceilRatDiv(n, rate), solo)
}

// SteadyState returns the chain's steady-state rate and its fastest
// single-task completion, the two numbers LowerBound and
// TasksUpperBound derive their bounds from; a caller that keeps them
// prices every later bound with one division.
func (ch Chain) SteadyState() (*big.Rat, Time, error) {
	rate, err := ch.Throughput()
	if err != nil {
		return nil, 0, err
	}
	_, solo := ch.BestSoloProc()
	return rate, solo, nil
}

// BestSolo returns the fastest single-task completion over the legs.
func (sp Spider) BestSolo() Time {
	solo := MaxTime
	for _, leg := range sp.Legs {
		if _, s := leg.BestSoloProc(); s < solo {
			solo = s
		}
	}
	return solo
}

// SteadyState is Chain.SteadyState for spiders.
func (sp Spider) SteadyState() (*big.Rat, Time, error) {
	rate, err := sp.Throughput()
	if err != nil {
		return nil, 0, err
	}
	return rate, sp.BestSolo(), nil
}

// SteadyState is Chain.SteadyState for forks (via the spider form).
func (f Fork) SteadyState() (*big.Rat, Time, error) {
	if err := f.Validate(); err != nil {
		return nil, 0, err
	}
	return f.Spider().SteadyState()
}

// SteadyState is Chain.SteadyState for trees.
func (t Tree) SteadyState() (*big.Rat, Time, error) {
	rate, err := t.Throughput()
	if err != nil {
		return nil, 0, err
	}
	return rate, t.bestSolo(), nil
}

// LowerBound returns a valid lower bound on the optimal makespan of n
// tasks on the chain: SteadyStateBound over its throughput and fastest
// solo path.
func (ch Chain) LowerBound(n int) (Time, error) { return lowerBound(ch, n) }

// LowerBound is Chain.LowerBound for spiders.
func (sp Spider) LowerBound(n int) (Time, error) { return lowerBound(sp, n) }

// LowerBound is Chain.LowerBound for forks (via the spider form).
func (f Fork) LowerBound(n int) (Time, error) { return lowerBound(f, n) }

// LowerBound returns a proven lower bound on the optimal makespan of n
// tasks on the tree: ⌈n / Throughput⌉, raised to the fastest solo path
// completion when larger.
func (t Tree) LowerBound(n int) (Time, error) { return lowerBound(t, n) }

// steadyStater is the platform kinds' SteadyState method.
type steadyStater interface {
	SteadyState() (*big.Rat, Time, error)
}

func lowerBound(p steadyStater, n int) (Time, error) {
	rate, solo, err := p.SteadyState()
	if err != nil {
		return 0, err
	}
	return SteadyStateBound(n, rate, solo), nil
}

// floorRatMul returns floor(t · rate), the steady-state cap on tasks
// injectable within t time units.
func floorRatMul(t Time, rate *big.Rat) int64 {
	num := new(big.Int).Mul(big.NewInt(int64(t)), rate.Num())
	quo := new(big.Int).Quo(num, rate.Denom())
	if !quo.IsInt64() {
		return int64(MaxTime)
	}
	return quo.Int64()
}

// SteadyStateTasks returns the upper bound the TasksUpperBound methods
// share: any schedule completing k ≥ 1 tasks within the deadline has
// deadline ≥ LowerBound(k) ≥ ⌈k/X⌉ ≥ k/X, so k ≤ ⌊deadline·X⌋; and the
// last task alone needs the fastest solo completion, so a deadline
// below it completes nothing.
func SteadyStateTasks(n int, deadline Time, rate *big.Rat, solo Time) int {
	if n <= 0 || deadline < solo {
		return 0
	}
	k := floorRatMul(deadline, rate)
	if k > int64(n) {
		return n
	}
	return int(k)
}

// TasksUpperBound returns a proven upper bound on how many of at most n
// tasks any schedule completes on the chain within the deadline — the
// degraded max_tasks answer the service's admission shedder returns
// without constructing a solver. It costs one Throughput evaluation
// (O(len) exact rational arithmetic), never underestimates the exact
// answer, and equals it in the steady-state limit.
func (ch Chain) TasksUpperBound(n int, deadline Time) (int, error) {
	return tasksUpperBound(ch, n, deadline)
}

// TasksUpperBound is Chain.TasksUpperBound for spiders.
func (sp Spider) TasksUpperBound(n int, deadline Time) (int, error) {
	return tasksUpperBound(sp, n, deadline)
}

// TasksUpperBound is Chain.TasksUpperBound for forks (via the spider
// form).
func (f Fork) TasksUpperBound(n int, deadline Time) (int, error) {
	return tasksUpperBound(f, n, deadline)
}

// TasksUpperBound is Chain.TasksUpperBound for trees.
func (t Tree) TasksUpperBound(n int, deadline Time) (int, error) {
	return tasksUpperBound(t, n, deadline)
}

func tasksUpperBound(p steadyStater, n int, deadline Time) (int, error) {
	rate, solo, err := p.SteadyState()
	if err != nil {
		return 0, err
	}
	return SteadyStateTasks(n, deadline, rate, solo), nil
}

// bestSolo returns the fastest single-task completion over all nodes.
func (t Tree) bestSolo() Time {
	best := MaxTime
	var walk func(n TreeNode, pathComm Time)
	walk = func(n TreeNode, pathComm Time) {
		arrive := pathComm + n.Comm
		if done := arrive + n.Work; done < best {
			best = done
		}
		for _, c := range n.Children {
			walk(c, arrive)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
	return best
}
