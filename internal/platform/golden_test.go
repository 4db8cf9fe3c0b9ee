package platform

import "testing"

// TestHashGolden pins the exact fingerprint bytes of one platform of
// every kind. Consistent-hash ring placement and the service cache key
// are derived from these bytes, so any change to the canonical encoding
// moves every platform to a different shard and cold-starts every
// cache: a deliberate format change must bump the domain tags and these
// values together.
func TestHashGolden(t *testing.T) {
	tree := Tree{Roots: []TreeNode{
		{Comm: 2, Work: 5, Children: []TreeNode{
			{Comm: 3, Work: 3},
			{Comm: 1, Work: 4, Children: []TreeNode{{Comm: 6, Work: 2}}},
		}},
		{Comm: 4, Work: 1},
	}}
	cases := []struct {
		name string
		got  Hash
		want string
	}{
		{"chain", HashChain(NewChain(2, 5, 3, 3)), "c21f90311062aaeb6f4240a1d6d7eb021e1dd1dbb590c7fff34e06d3808a9481"},
		{"spider", HashSpider(NewSpider(NewChain(2, 5, 3, 3), NewChain(1, 4), NewChain(3, 2, 1, 6))), "8ce1d22c509f11fb3caeb8c7771e8285334e415111399c8eb78d61b2ad25fbe6"},
		{"fork", HashFork(NewFork(2, 5, 1, 4, 3, 3, 1, 4)), "b14c8bbe0cc1370afc2843b2ba645f8e716ccc7b2cb409c6d2d09df0c47a1c95"},
		{"tree", HashTree(tree), "41450fcdd32f54a2debeb7565c71d619d96aed4cb8b307b31878997f73fbf7aa"},
	}
	for _, tc := range cases {
		if got := tc.got.String(); got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
