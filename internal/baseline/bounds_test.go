package baseline

import (
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func ratEq(t *testing.T, got *big.Rat, num, den int64, what string) {
	t.Helper()
	want := big.NewRat(num, den)
	if got.Cmp(want) != 0 {
		t.Errorf("%s = %s, want %s", what, got.RatString(), want.RatString())
	}
}

func TestChainRateHandChecked(t *testing.T) {
	// Single node (c=2, w=5): X = min(1/2, 1/5) = 1/5.
	r, err := platform.NewChain(2, 5).Throughput()
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, r, 1, 5, "rate(2,5)")

	// Fixture chain (2,5)(3,3): X_2 = min(1/3, 1/3) = 1/3;
	// X_1 = min(1/2, 1/5 + 1/3) = min(1/2, 8/15) = 1/2.
	r, err = platform.NewChain(2, 5, 3, 3).Throughput()
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, r, 1, 2, "rate(fig2)")

	// Compute-bound tail: (c=1,w=10)->(c=1,w=10): X_2 = 1/10,
	// X_1 = min(1, 1/10 + 1/10) = 1/5.
	r, err = platform.NewChain(1, 10, 1, 10).Throughput()
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, r, 1, 5, "rate(two slow cpus)")
}

func TestChainRateLinkBottleneck(t *testing.T) {
	// A slow first link caps everything: (c=10, w=1) -> X = 1/10
	// regardless of the tail.
	r, err := platform.NewChain(10, 1, 1, 1, 1, 1).Throughput()
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, r, 1, 10, "rate(slow head)")
}

func TestSpiderRateHandChecked(t *testing.T) {
	// Two single-node legs (c=2,w=2) and (c=2,w=2): each leg rate 1/2,
	// port budget 1 gives r1 = min(1/2, 1/2)=1/2 spending 1, r2 = 0.
	sp := platform.NewSpider(platform.NewChain(2, 2), platform.NewChain(2, 2))
	r, err := sp.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, r, 1, 2, "rate(two equal legs)")

	// Fast link first: legs (c=1,w=4) and (c=2,w=2).
	// Leg A rate min(1,1/4)=1/4 costing c=1 each: spends 1/4 of port.
	// Leg B rate min(1/2,1/2)=1/2, port left 3/4 allows (3/4)/2=3/8;
	// r_B = 3/8. Total = 1/4+3/8 = 5/8.
	sp = platform.NewSpider(platform.NewChain(1, 4), platform.NewChain(2, 2))
	r, err = sp.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	ratEq(t, r, 5, 8, "rate(mixed legs)")
}

func TestLowerBoundChainIsValid(t *testing.T) {
	// The bound must never exceed the true optimum (core.Schedule).
	g := platform.MustGenerator(13, 1, 9, platform.Bimodal)
	for trial := 0; trial < 12; trial++ {
		ch := g.Chain(1 + trial%4)
		n := 1 + 5*trial
		lb, err := ch.LowerBound(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Schedule(ch, n)
		if err != nil {
			t.Fatal(err)
		}
		if lb > s.Makespan() {
			t.Errorf("%v n=%d: lower bound %d exceeds optimum %d", ch, n, lb, s.Makespan())
		}
	}
}

func TestLowerBoundChainAsymptoticallyTight(t *testing.T) {
	// As n grows the optimal makespan approaches n/X: the gap stays
	// bounded while both grow linearly. Check makespan ≤ lb + constant
	// slack on a well-behaved chain.
	ch := platform.NewChain(2, 5, 3, 3) // rate 1/2
	for _, n := range []int{50, 100, 200} {
		lb, err := ch.LowerBound(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.Schedule(ch, n)
		if err != nil {
			t.Fatal(err)
		}
		gap := s.Makespan() - lb
		if gap < 0 {
			t.Fatalf("n=%d: negative gap %d", n, gap)
		}
		// The startup transient of this chain is tiny; 20 units is
		// generous and n-independent.
		if gap > 20 {
			t.Errorf("n=%d: gap %d not O(1)", n, gap)
		}
	}
}

func TestLowerBoundsDegenerate(t *testing.T) {
	if _, err := (platform.Chain{}).LowerBound(3); err == nil {
		t.Error("empty chain accepted")
	}
	lb, err := fig2Chain().LowerBound(0)
	if err != nil || lb != 0 {
		t.Errorf("n=0: %v %d", err, lb)
	}
	if _, err := (platform.Spider{}).LowerBound(3); err == nil {
		t.Error("empty spider accepted")
	}
	lb, err = platform.NewSpider(fig2Chain()).LowerBound(0)
	if err != nil || lb != 0 {
		t.Errorf("spider n=0: %v %d", err, lb)
	}
}

func TestRateString(t *testing.T) {
	s := RateString(big.NewRat(5, 8))
	if s != "5/8 (~0.6250 tasks/unit)" {
		t.Errorf("RateString = %q", s)
	}
}
