package ring

import (
	"reflect"
	"testing"
)

func TestRingKeepsMostRecentInOrder(t *testing.T) {
	r := New[int](4)
	for i := 1; i <= 3; i++ {
		if _, ev := r.Push(i); ev {
			t.Fatalf("push %d evicted before the ring was full", i)
		}
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("partly filled ring = %v", got)
	}
	for i := 4; i <= 10; i++ {
		old, ev := r.Push(i)
		if want := i - 4; ev != (want >= 1) || (ev && old != want) {
			t.Fatalf("push %d evicted (%d, %v), want oldest %d", i, old, ev, want)
		}
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{7, 8, 9, 10}) {
		t.Fatalf("wrapped ring = %v, want the last four in order", got)
	}
}
