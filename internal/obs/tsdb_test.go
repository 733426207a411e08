package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestTSDBAppendAndWindow(t *testing.T) {
	db := NewTSDB(4)
	for i := 0; i < 6; i++ {
		db.Append("q", uint64(i), float64(i*10))
	}
	// Capacity 4: points 2..5 survive, oldest first.
	want := []Point{{2, 20}, {3, 30}, {4, 40}, {5, 50}}
	if got := db.Series("q"); !reflect.DeepEqual(got, want) {
		t.Fatalf("series after wrap = %+v, want %+v", got, want)
	}
	if last, ok := db.Last("q"); !ok || last != (Point{5, 50}) {
		t.Fatalf("last = %+v %v", last, ok)
	}
	if got := db.Window("q", 2); !reflect.DeepEqual(got, []Point{{4, 40}, {5, 50}}) {
		t.Fatalf("window(2) = %+v", got)
	}
	if db.Len("q") != 4 || db.Len("missing") != 0 {
		t.Fatalf("len = %d / %d", db.Len("q"), db.Len("missing"))
	}
	if _, ok := db.Last("missing"); ok {
		t.Fatal("missing series has a last point")
	}
}

// TestTSDBAppendOrderContract pins the Append contract: insertion order
// is preserved verbatim — an out-of-order timestamp is not re-sorted
// into place, duplicate timestamps are all kept as distinct points, and
// Last means "most recently appended", not "largest T". A producer that
// merges several sources into one series must canonicalize before
// appending.
func TestTSDBAppendOrderContract(t *testing.T) {
	db := NewTSDB(8)
	db.Append("s", 10, 1)
	db.Append("s", 30, 3)
	db.Append("s", 20, 2) // out of order: retained as given
	db.Append("s", 30, 9) // duplicate timestamp: kept, not collapsed
	want := []Point{{10, 1}, {30, 3}, {20, 2}, {30, 9}}
	if got := db.Series("s"); !reflect.DeepEqual(got, want) {
		t.Fatalf("series = %+v, want insertion order %+v", got, want)
	}
	if last, ok := db.Last("s"); !ok || last != (Point{30, 9}) {
		t.Fatalf("Last = %+v %v, want the most recently appended point", last, ok)
	}
	// Window is a suffix of insertion order, so derived values (burn
	// rates) see arrival order too — exactly why mergers must sort and
	// dedup first.
	if got := db.Window("s", 2); !reflect.DeepEqual(got, []Point{{20, 2}, {30, 9}}) {
		t.Fatalf("window(2) = %+v", got)
	}
}

func TestTSDBNilIsNoOp(t *testing.T) {
	var db *TSDB
	db.Append("x", 1, 2)
	if db.Series("x") != nil || db.Names() != nil || db.SaveState() != nil {
		t.Fatal("nil TSDB returned data")
	}
	if err := db.RestoreState(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.RestoreState(&TSDBState{}); err == nil {
		t.Fatal("restore into nil store accepted")
	}
}

func TestTSDBStateRoundTripDeterministic(t *testing.T) {
	db := NewTSDB(8)
	db.Append("b/one", 1, 1)
	db.Append("a/two", 2, 0.5)
	db.Append("b/one", 3, 0)

	st := db.SaveState()
	if got := []string{st.Series[0].Name, st.Series[1].Name}; got[0] != "a/two" || got[1] != "b/one" {
		t.Fatalf("state series not sorted: %v", got)
	}
	// Deterministic encoding: two saves are byte-identical.
	j1, _ := json.Marshal(st)
	j2, _ := json.Marshal(db.SaveState())
	if string(j1) != string(j2) {
		t.Fatal("state encoding not deterministic")
	}

	db2 := NewTSDB(8)
	db2.Append("stale", 9, 9)
	if err := db2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if db2.Series("stale") != nil {
		t.Fatal("restore did not replace existing series")
	}
	if !reflect.DeepEqual(db2.Series("b/one"), db.Series("b/one")) {
		t.Fatalf("restored series diverges: %+v vs %+v", db2.Series("b/one"), db.Series("b/one"))
	}
	// Appends continue where the restore left off.
	db2.Append("b/one", 4, 7)
	if last, _ := db2.Last("b/one"); last != (Point{4, 7}) {
		t.Fatalf("append after restore = %+v", last)
	}
}

func TestTSDBStateRejectsCorrupt(t *testing.T) {
	db := NewTSDB(4)
	if err := db.RestoreState(&TSDBState{Series: []TSSeriesState{{Name: ""}}}); err == nil {
		t.Fatal("unnamed series accepted")
	}
	if err := db.RestoreState(&TSDBState{Series: []TSSeriesState{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate series accepted")
	}
	// Oversized series are truncated to the newest points, not rejected.
	long := make([]Point, 10)
	for i := range long {
		long[i] = Point{uint64(i), float64(i)}
	}
	if err := db.RestoreState(&TSDBState{Cap: 4, Series: []TSSeriesState{{Name: "a", Points: long}}}); err != nil {
		t.Fatal(err)
	}
	if got := db.Series("a"); len(got) != 4 || got[0].T != 6 {
		t.Fatalf("oversized restore kept %+v", got)
	}
}
