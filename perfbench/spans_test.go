package main

import (
	"testing"
	"time"
)

func sp(name string, start, end, parent int) span {
	return span{Name: name, Start: time.Duration(start), End: time.Duration(end), Parent: parent}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		from  int
		want  map[string]time.Duration
	}{
		{
			name: "nested",
			spans: []span{
				sp("a", 0, 100, -1),
				sp("b", 10, 60, 0),
				sp("c", 20, 30, 1),
			},
			want: map[string]time.Duration{"a": 50, "b": 40, "c": 10},
		},
		{
			name: "siblings",
			spans: []span{
				sp("a", 0, 100, -1),
				sp("b", 10, 20, 0),
				sp("b", 30, 50, 0),
				sp("c", 60, 90, 0),
			},
			want: map[string]time.Duration{"a": 40, "b": 30, "c": 30},
		},
		{
			// An ingest goroutine's span overlapping the router's flush
			// span under the same operation: the overlap counts once.
			name: "overlapping",
			spans: []span{
				sp("op", 0, 100, -1),
				sp("flush", 10, 50, 0),
				sp("ingest", 30, 70, 0),
				sp("ingest", 40, 45, 0),
			},
			want: map[string]time.Duration{"op": 40, "flush": 40, "ingest": 45},
		},
		{
			name: "child outlives parent",
			spans: []span{
				sp("a", 0, 50, -1),
				sp("b", 40, 80, 0),
				sp("c", -10, 5, 0),
			},
			want: map[string]time.Duration{"a": 35, "b": 40, "c": 15},
		},
		{
			name: "from skips earlier passes",
			spans: []span{
				sp("a", 0, 100, -1),
				sp("b", 10, 20, 0),
				sp("a", 200, 300, -1),
				sp("b", 210, 250, 2),
			},
			from: 2,
			want: map[string]time.Duration{"a": 60, "b": 40},
		},
	}
	for _, tc := range cases {
		got := selfTimes(tc.spans, tc.from)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
			continue
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("%s: self(%s) = %v, want %v", tc.name, k, got[k], v)
			}
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	if r.mark() != 0 || r.selfTimes(0) != nil {
		t.Fatal("nil recorder recorded something")
	}
}
