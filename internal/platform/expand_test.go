package platform

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestExpandNodeFig6(t *testing.T) {
	// Fig. 6: a node (c, w) becomes single-task slaves with processing
	// times w, w+m, ..., w+n*m with m = max(c, w).
	n := Node{Comm: 2, Work: 5} // m = 5
	vs := ExpandNode(n, 4, 3)
	wantProc := []Time{5, 10, 15, 20}
	if len(vs) != 4 {
		t.Fatalf("len = %d, want 4", len(vs))
	}
	for i, v := range vs {
		if v.Comm != 2 {
			t.Errorf("slave %d Comm = %d, want 2", i, v.Comm)
		}
		if v.Proc != wantProc[i] {
			t.Errorf("slave %d Proc = %d, want %d", i, v.Proc, wantProc[i])
		}
		if v.Leg != 3 || v.Rank != i {
			t.Errorf("slave %d origin = (leg=%d, rank=%d), want (3,%d)", i, v.Leg, v.Rank, i)
		}
	}
}

func TestExpandNodeCommDominated(t *testing.T) {
	// When c > w the pipeline period is the link latency.
	n := Node{Comm: 7, Work: 3} // m = 7
	vs := ExpandNode(n, 3, 0)
	wantProc := []Time{3, 10, 17}
	for i, v := range vs {
		if v.Proc != wantProc[i] {
			t.Errorf("slave %d Proc = %d, want %d", i, v.Proc, wantProc[i])
		}
	}
}

func TestExpandNodeZeroCount(t *testing.T) {
	if vs := ExpandNode(Node{Comm: 1, Work: 1}, 0, 0); len(vs) != 0 {
		t.Errorf("count=0 produced %d slaves", len(vs))
	}
}

func TestExpandPipelinePeriodProperty(t *testing.T) {
	// Consecutive virtual slaves of one node differ by exactly
	// max(c, w); the first equals w.
	prop := func(c, w uint8, cnt uint8) bool {
		node := Node{Comm: Time(c%32 + 1), Work: Time(w%32 + 1)}
		count := int(cnt%8) + 2
		vs := ExpandNode(node, count, 0)
		if vs[0].Proc != node.Work {
			return false
		}
		m := max(node.Comm, node.Work)
		for i := 1; i < len(vs); i++ {
			if vs[i].Proc-vs[i-1].Proc != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSortVirtualSlaves(t *testing.T) {
	vs := []VirtualSlave{
		{Comm: 3, Proc: 1, Leg: 0, Rank: 0},
		{Comm: 1, Proc: 9, Leg: 1, Rank: 0},
		{Comm: 1, Proc: 2, Leg: 0, Rank: 1},
		{Comm: 1, Proc: 2, Leg: 0, Rank: 0},
		{Comm: 2, Proc: 5, Leg: 2, Rank: 3},
	}
	slices.SortFunc(vs, CompareVirtualSlaves)
	if !sort.SliceIsSorted(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Comm != b.Comm {
			return a.Comm < b.Comm
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Leg != b.Leg {
			return a.Leg < b.Leg
		}
		return a.Rank < b.Rank
	}) {
		t.Errorf("not sorted: %v", vs)
	}
	if vs[0].Comm != 1 || vs[0].Proc != 2 || vs[0].Rank != 0 {
		t.Errorf("first element = %v, want c=1 t=2 rank=0", vs[0])
	}
	if vs[len(vs)-1].Comm != 3 {
		t.Errorf("last element = %v, want c=3", vs[len(vs)-1])
	}
}
