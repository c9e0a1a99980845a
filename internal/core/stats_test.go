package core

import (
	"reflect"
	"testing"
)

// TestSearchStatsAdd sets every field of two SearchStats through reflection,
// so a counter added later without a line in Add fails here: Workers must be
// the maximum and every other field the sum.
func TestSearchStatsAdd(t *testing.T) {
	var a, b SearchStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < typ.NumField(); i++ {
		switch va.Field(i).Kind() {
		case reflect.Int, reflect.Int64:
			// Distinct per field, and b's Workers below a's so the maximum
			// is not simply the right-hand side.
			va.Field(i).SetInt(int64(1000 + i))
			vb.Field(i).SetInt(int64(7 + 3*i))
		default:
			t.Fatalf("SearchStats.%s has kind %s: teach Add and this test how to combine it",
				typ.Field(i).Name, va.Field(i).Kind())
		}
	}
	want := make([]int64, typ.NumField())
	for i := range want {
		want[i] = va.Field(i).Int() + vb.Field(i).Int()
	}
	want[0] = va.Field(0).Int() // Workers
	if typ.Field(0).Name != "Workers" {
		t.Fatalf("field 0 is %s, want Workers", typ.Field(0).Name)
	}

	a.Add(b)
	for i := range want {
		if got := va.Field(i).Int(); got != want[i] {
			t.Errorf("after Add, %s = %d, want %d", typ.Field(i).Name, got, want[i])
		}
	}

	// Workers keeps the larger side either way round.
	c := SearchStats{Workers: 2}
	c.Add(SearchStats{Workers: 8})
	if c.Workers != 8 {
		t.Errorf("Workers = %d after adding a wider search, want 8", c.Workers)
	}
}
