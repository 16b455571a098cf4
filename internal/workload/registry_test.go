package workload

import "testing"

// tinyBuilder returns a builder producing a minimal real dataset quickly.
func tinyBuilder() func() (*Dataset, error) {
	cfg := TwitterConfig()
	cfg.Rows = 2_000
	cfg.Scale = 100e6 / float64(cfg.Rows)
	return func() (*Dataset, error) { return Twitter(cfg) }
}

func TestRegistryRegisterAndNames(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("a", tinyBuilder()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", tinyBuilder()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", tinyBuilder()); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.Register("", tinyBuilder()); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register("c", nil); err == nil {
		t.Error("nil builder accepted")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Names() = %v, want [a b]", got)
	}
	if build, ok := r.Builder("a"); !ok || build == nil {
		t.Error("Builder(a) missing")
	}
	if _, ok := r.Builder("c"); ok {
		t.Error("rejected registration left a builder behind")
	}
}

func TestStandardBuilder(t *testing.T) {
	for _, name := range StandardNames() {
		build, err := StandardBuilder(name, 1_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ds, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tb := ds.DB.Table(ds.Main)
		if tb == nil || tb.Rows != 1_000 {
			t.Fatalf("%s: main table rows = %v, want 1000", name, tb)
		}
	}
	if _, err := StandardBuilder("nope", 0); err == nil {
		t.Error("unknown standard dataset accepted")
	}
}
