package core

import (
	"bytes"
	"reflect"
	"testing"
)

// TestCanonicalCoversEveryField: Canonical() is the machine's part of every
// result-store key, so changing any Config field — nested Cache, BPred and
// Net included — must change it. A field json.Marshal skips (unexported,
// tagged json:"-", or shadowed by a duplicate tag name) would let two
// machines that simulate differently share one key.
func TestCanonicalCoversEveryField(t *testing.T) {
	base := DefaultConfig(2)
	want, err := base.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	// withDefaults overwrites BPred.NumThreads from NumThreads, which is
	// itself covered.
	derived := map[string]bool{"BPred.NumThreads": true}

	var visit func(path string, index []int, typ reflect.Type)
	visit = func(path string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + f.Name
			idx := append(append([]int(nil), index...), i)
			if !f.IsExported() {
				t.Errorf("Config field %s is unexported: json.Marshal skips it, so it never reaches Canonical()", name)
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				visit(name+".", idx, f.Type)
				continue
			}
			if derived[name] {
				continue
			}
			c := base
			v := reflect.ValueOf(&c).Elem().FieldByIndex(idx)
			switch v.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(v.Float() + 0.125)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.String:
				v.SetString(v.String() + "x")
			default:
				t.Errorf("Config field %s has kind %s, which this test cannot vary", name, v.Kind())
				continue
			}
			got, err := c.Canonical()
			if err != nil {
				t.Errorf("Canonical with %s changed: %v", name, err)
			} else if bytes.Equal(got, want) {
				t.Errorf("changing Config field %s left Canonical() unchanged, so two machines would share a store key", name)
			}
		}
	}
	visit("", nil, reflect.TypeOf(base))
}
