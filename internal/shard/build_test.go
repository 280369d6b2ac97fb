package shard

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// closer is a built shard that records its partition and its Close.
type closer struct {
	part   []string
	closed *bool
}

func (c closer) Close() error { *c.closed = true; return nil }

// Build splits contiguously, the first len mod n partitions one longer,
// and refuses a shard count outside [1, workers] before building
// anything — the refusal both binaries print for -shards.
func TestBuildSplitsOrRefusesBeforeBuilding(t *testing.T) {
	addrs := []string{"a", "b", "c", "d", "e"}
	for _, tc := range []struct {
		shards int
		want   [][]string // nil: refused
	}{
		{-1, nil},
		{0, nil},
		{1, [][]string{{"a", "b", "c", "d", "e"}}},
		{2, [][]string{{"a", "b", "c"}, {"d", "e"}}},
		{3, [][]string{{"a", "b"}, {"c", "d"}, {"e"}}},
		{5, [][]string{{"a"}, {"b"}, {"c"}, {"d"}, {"e"}}},
		{6, nil},
	} {
		built := 0
		shards, ring, err := Build(addrs, tc.shards, func(s int, part []string) (closer, error) {
			if s != built {
				t.Fatalf("shards=%d: built shard %d as number %d", tc.shards, s, built)
			}
			built++
			return closer{part: part, closed: new(bool)}, nil
		})
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "cannot split 5 workers") || built != 0 {
				t.Fatalf("shards=%d: err %v after %d builds, want a refusal before any", tc.shards, err, built)
			}
			continue
		}
		if err != nil {
			t.Fatalf("shards=%d: %v", tc.shards, err)
		}
		var got [][]string
		for _, sh := range shards {
			got = append(got, sh.part)
		}
		if !reflect.DeepEqual(got, tc.want) || ring.Shards() != tc.shards {
			t.Fatalf("shards=%d: partitions %v over a %d-shard ring, want %v", tc.shards, got, ring.Shards(), tc.want)
		}
	}
	// The simulated plane refuses through the same check.
	if _, err := New(Options{Shards: 0, Workers: 4}); err == nil || !strings.Contains(err.Error(), "cannot split 4 workers into 0 shards") {
		t.Fatalf("New with 0 shards: %v", err)
	}
}

// A shard that fails to build closes the ones built before it.
func TestBuildClosesBuiltShardsOnFailure(t *testing.T) {
	boom := errors.New("dial failed")
	var closed []*bool
	_, _, err := Build([]string{"a", "b", "c"}, 3, func(s int, part []string) (closer, error) {
		if s == 2 {
			return closer{}, boom
		}
		c := closer{part: part, closed: new(bool)}
		closed = append(closed, c.closed)
		return c, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v, want %v", err, boom)
	}
	for s, c := range closed {
		if !*c {
			t.Fatalf("shard %d left open after a later shard failed", s)
		}
	}
}
