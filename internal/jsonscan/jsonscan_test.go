package jsonscan

import (
	"strconv"
	"strings"
	"testing"
)

func TestValueStopsAtMaxDepth(t *testing.T) {
	for _, levels := range []int{MaxDepth, MaxDepth + 1} {
		doc := strings.Repeat("[", levels) + strings.Repeat("]", levels)
		s := Scanner{B: []byte(doc)}
		if got, want := s.Value(0, true), levels <= MaxDepth; got != want {
			t.Errorf("%d levels: Value = %v, want %v", levels, got, want)
		}
	}
}

func TestIntLeavesOutOfRangeToReference(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"0", true}, {"-12", true}, {" 999999999999999999", true},
		{"1000000000000000000", false}, {"01", false}, {"-", false}, {"", false},
	} {
		var v int64
		s := Scanner{B: []byte(tc.in)}
		if got := Int(&s, &v); got != tc.ok {
			t.Errorf("Int(%q) = %v, want %v", tc.in, got, tc.ok)
		}
		if want, _ := strconv.ParseInt(strings.TrimSpace(tc.in), 10, 64); tc.ok && v != want {
			t.Errorf("Int(%q) read %d", tc.in, v)
		}
	}
}

func TestObjectRejectsUnknownAndRepeatedKeys(t *testing.T) {
	keys := []string{"a", "bc"}
	for in, want := range map[string]bool{
		`{}`: true, `{"a":1,"bc":2}`: true, `{ "bc" : 2 , "a" : 1 }`: true,
		`{"a":1,"a":2}`: false, `{"b":1}`: false, `{"ab":1}`: false, `{"a":1,}`: false,
	} {
		s := Scanner{B: []byte(in)}
		var v int
		if got := s.Object(keys, func(int) bool { return Int(&s, &v) }); got != want {
			t.Errorf("Object(%s) = %v, want %v", in, got, want)
		}
	}
}
