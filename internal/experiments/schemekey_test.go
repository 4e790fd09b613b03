package experiments

import (
	"context"
	"testing"

	"clustersmt/internal/policy"
	"clustersmt/internal/workload"
)

// preRedesignKeys pins the content-addressed cache keys of the 12 named
// schemes (workload dh.ilp.2.1, trace length 20000, IQ 32, otherwise
// default) to the values the runner produced BEFORE the composable
// scheme-spec API existed. These keys address entries in users' on-disk
// result stores: if any of them changes, every pre-redesign store replays
// as 0 hits and silently re-simulates. Never regenerate this table from
// current code — that would defeat its purpose.
var preRedesignKeys = map[string]string{
	"cdprf":     "c0eed5b5d122a504dc61af3411955400b4a528e93a80c568792f873c916edc72",
	"cisp":      "ae07a8c5c94b435b7f5595d3f0ee26a0e9c53902fc9ff86e875969651e1dd0b4",
	"cisprf":    "6ba4f7522d5ef5c4d773b07d45c6d19a1f53138ffeb87cb47df65a3ff3d15076",
	"cspsp":     "f48d6fbb7d669ced1c57b6d6206e7cc31760c599e9deee9d80162751e65c856b",
	"cssp":      "2b43f11d7083526d4f9f1d2ce4c96bb358da86032756c76a06f1a1d63a2a2117",
	"cssprf":    "3ee1f237044975d8ded17f722cb40eec95784a6f21179ce327329388f501924b",
	"dcra":      "e6d69829f9d74ee930ed6662a4f0afcfd105d2656fca309ee7b0b00b9d7e6781",
	"flush+":    "14a38264927a6f8c0536737fdbf1f39a8edb5d31bf4109184d3184a507938f77",
	"hillclimb": "192cf3317f446d3e2590d5044fafe42be2cb6eb3044c3a94381cf1b27513da8d",
	"icount":    "7a80f81d88a5111d39ab794a677115be4c2b45b23b2d10a5f7db4ce39a95b60e",
	"pc":        "94f7027b26080ae2ba5c6b8a359fc1606de148c2f62e3deef119214ea89acbf3",
	"stall":     "c91193f848faab4c2caa14f245e97e28ac2e891e2c6255bdaa95a8299dc08906",
}

// preRedesignKeysRF pins the same for the register-bounded machine of the
// §5.2 study (64 regs/cluster, ROB 128).
var preRedesignKeysRF = map[string]string{
	"cssp":   "d897f6237706e1759a49461adae1fa7465419079a21160cb60ad63041613adb6",
	"cssprf": "3e022440747792478c09712e15b714757e623e67c2c0299cade3e0ad8a26c72c",
	"cisprf": "9c63efeb7fc8f074e28c171ff0ec136a8e1bec6a5911e5915dadc0f1dae9bba1",
	"cdprf":  "7c07dd2d1da643f2035fac1e7caa9c8ba078046fa7df9cdbb635af242a23abf7",
}

func keyWorkload(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.Find("dh.ilp.2.1")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestNamedSchemeCacheKeysPinned: the named schemes' content-addressed
// keys are byte-identical to their pre-redesign values, so existing result
// stores, goldens and diffable result sets stay valid across the
// scheme-spec API redesign.
func TestNamedSchemeCacheKeysPinned(t *testing.T) {
	w := keyWorkload(t)
	r := NewRunner(20000)
	if len(preRedesignKeys) != len(policy.Names()) {
		t.Fatalf("pinned table covers %d schemes, registry has %d", len(preRedesignKeys), len(policy.Names()))
	}
	for name, want := range preRedesignKeys {
		got := r.CacheKey(Spec{Workload: w, Scheme: name, IQSize: 32})
		if got != want {
			t.Errorf("%s: cache key %s, want pre-redesign %s", name, got, want)
		}
	}
	for name, want := range preRedesignKeysRF {
		got := r.CacheKey(Spec{Workload: w, Scheme: name, IQSize: 32, RegsPerClust: 64, ROBPerThread: 128})
		if got != want {
			t.Errorf("%s (rf machine): cache key %s, want pre-redesign %s", name, got, want)
		}
	}
}

// TestComposedSpecAliasesNamedKey: a composed spelling of a named scheme
// content-addresses to the named scheme's key (it is the same simulated
// outcome), while a genuinely different composition gets a different key.
func TestComposedSpecAliasesNamedKey(t *testing.T) {
	w := keyWorkload(t)
	r := NewRunner(20000)
	for name, spelling := range map[string]string{
		"cdprf":  "sel=icount,iq=cssp,rf=cdprf",
		"cssp":   "rf=none,iq=cssp",
		"stall":  "sel=stall",
		"cspsp":  "iq=cspsp:frac=0.25",
		"icount": "sel=icount,iq=unrestricted,rf=none",
	} {
		named := r.CacheKey(Spec{Workload: w, Scheme: name, IQSize: 32})
		composed := r.CacheKey(Spec{Workload: w, Scheme: spelling, IQSize: 32})
		if named != composed {
			t.Errorf("%q key %s != %q key %s", spelling, composed, name, named)
		}
		if named != preRedesignKeys[name] {
			t.Errorf("%s drifted from pre-redesign key", name)
		}
	}
	novel := r.CacheKey(Spec{Workload: w, Scheme: "sel=stall,iq=cssp,rf=cdprf", IQSize: 32})
	for name, k := range preRedesignKeys {
		if novel == k {
			t.Errorf("novel composition collides with named scheme %s", name)
		}
	}
}

// TestComposedSpecRuns: a non-named composition executes end-to-end on the
// runner and its results recall from the store by content address.
func TestComposedSpecRuns(t *testing.T) {
	w := keyWorkload(t)
	r := NewRunner(2000)
	spec := Spec{Workload: w, Scheme: "sel=stall,iq=cssp,rf=cdprf:interval=8192", IQSize: 32}
	st, _, executed, _, err := r.Do(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() <= 0 {
		t.Fatalf("composed spec produced IPC %v", st.IPC())
	}
	if !executed {
		t.Fatal("the composed spec was not executed")
	}
	// An equivalent spelling (clauses reordered, explicit defaults) is a
	// pure store hit.
	again, _, executed, _, err := r.Do(context.Background(), Spec{Workload: w, Scheme: "rf=cdprf:interval=8192,iq=cssp,sel=stall", IQSize: 32}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.IPC() != st.IPC() {
		t.Errorf("respelled run diverged: %v vs %v", again.IPC(), st.IPC())
	}
	if executed {
		t.Error("the respelled recall was executed")
	}
	// An unparseable scheme surfaces the parse error.
	if _, err := runOne(r, Spec{Workload: w, Scheme: "sel=bogus", IQSize: 32}); err == nil {
		t.Error("bogus composed spec should fail")
	}
}
