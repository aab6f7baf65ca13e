package experiments

import (
	"reflect"
	"testing"
)

// setCounter stores v in the named EngineStats field by reflection
// (v·(i+1) in element i of an array counter).
func setCounter(s *EngineStats, field string, v uint64) {
	f := reflect.ValueOf(s).Elem().FieldByName(field)
	set := func(f reflect.Value, v uint64) {
		if f.CanUint() {
			f.SetUint(v)
		} else {
			f.SetInt(int64(v))
		}
	}
	if f.Kind() != reflect.Array {
		set(f, v)
		return
	}
	for i := 0; i < f.Len(); i++ {
		set(f.Index(i), v*uint64(i+1))
	}
}

// TestCounterTable: the EngineStats field tags are the only place a
// counter lives. For every field, Add applies the merge its stat tag
// declares and Lookup finds it under its json key (array counters
// summed); Add allocates nothing.
func TestCounterTable(t *testing.T) {
	typ := reflect.TypeOf(EngineStats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var a, b, want EngineStats
		setCounter(&a, f.Name, 500)
		setCounter(&b, f.Name, 300)
		setCounter(&want, f.Name, 800)
		if f.Tag.Get("stat") == "max" {
			want = a
		}
		sum := a
		sum.Add(b)
		if sum != want {
			t.Errorf("%s: Add gives %+v, want %+v under stat %q", f.Name, sum, want, f.Tag.Get("stat"))
		}

		key := f.Tag.Get("json")
		wantV := uint64(500)
		if f.Type.Kind() == reflect.Array {
			n := uint64(f.Type.Len())
			wantV = 500 * n * (n + 1) / 2
		}
		if v, ok := a.Lookup(key); !ok || v != wantV {
			t.Errorf("%s: Lookup(%q) = %d, %v; want %d", f.Name, key, v, ok, wantV)
		}
	}
	var zero EngineStats
	if _, ok := zero.Lookup("no_such_counter"); ok {
		t.Error("Lookup found an undeclared counter")
	}
	// Add runs once per run inside bench/'s measured passes.
	var acc EngineStats
	sample := EngineStats{Events: 1, ReelectNS: 2}
	sample.ShardEvents[0], sample.ShardEvents[1] = 3, 4
	if n := testing.AllocsPerRun(100, func() { acc.Add(sample) }); n != 0 {
		t.Errorf("EngineStats.Add allocates %v times per call", n)
	}
}
