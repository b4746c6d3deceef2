package dcmodel

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// savedModels trains each approach, and KOOZA once more with a
// hierarchical storage model and semi-Markov arrivals, on a small webtier
// trace and returns what Save writes, by name.
func savedModels(t testing.TB) map[string][]byte {
	t.Helper()
	tr := presetTrace(t, "webtier", 120, 1)
	small := []TrainOption{WithStorageRegions(4), WithCPUStates(3)}
	out := make(map[string][]byte)
	for _, e := range []struct {
		name string
		a    Approach
		opts []TrainOption
	}{
		{"kooza", Kooza, small},
		{"kooza-hier", Kooza, []TrainOption{WithKoozaOptions(KoozaOptions{StorageRegions: 4, CPUStates: 3, Hierarchical: true, HierGroups: 2, ArrivalStates: 2})}},
		{"inbreadth", InBreadth, small},
		{"indepth", InDepth, nil},
	} {
		m, err := Train(tr, e.a, e.opts...)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		out[e.name] = buf.Bytes()
	}
	return out
}

// jsonAt walks a decoded JSON document by object keys and array indexes.
func jsonAt(doc any, path ...any) any {
	for _, p := range path {
		switch k := p.(type) {
		case string:
			doc = doc.(map[string]any)[k]
		case int:
			doc = doc.([]any)[k]
		}
	}
	return doc
}

// TestLoadModelRefusesMalformed edits one field of a saved model at a time
// and wants LoadModel to refuse the file, where it used to load it (and
// synthesis panicked) or panicked itself.
func TestLoadModelRefusesMalformed(t *testing.T) {
	saved := savedModels(t)
	obj := func(doc any, path ...any) map[string]any { return jsonAt(doc, path...).(map[string]any) }
	cases := []struct {
		name string
		base string
		a    Approach
		edit func(doc any)
	}{
		{"cpu levels shorter than the chain", "kooza", Kooza, func(doc any) {
			cpu := obj(doc, "classes", 0, "CPU")
			cpu["Levels"] = cpu["Levels"].([]any)[:1]
		}},
		{"half-length transition matrix", "kooza", Kooza, func(doc any) {
			trans := obj(doc, "classes", 0, "Storage", "Chain", "Trans")
			data := trans["Data"].([]any)
			trans["Data"] = data[:len(data)/2]
		}},
		{"empty initial distribution", "kooza", Kooza, func(doc any) {
			obj(doc, "classes", 0, "Memory", "Chain")["Initial"] = []any{}
		}},
		{"transition row of zeros", "inbreadth", InBreadth, func(doc any) {
			data := jsonAt(doc, "cpu", "Chain", "Trans", "Data").([]any)
			for j := 0; j < 3; j++ {
				data[j] = 0.0
			}
		}},
		{"phase of no subsystem", "kooza", Kooza, func(doc any) {
			jsonAt(doc, "classes", 0, "Queues", 0, "Phases").([]any)[0] = 7.0
		}},
		{"negative server weights", "kooza", Kooza, func(doc any) {
			servers := obj(doc, "classes", 0, "ServerWeights")
			for k := range servers {
				servers[k] = -1.0
			}
		}},
		{"gamma of negative shape", "kooza", Kooza, func(doc any) {
			obj(doc, "network")["interarrival"] = map[string]any{"name": "gamma", "params": []any{-5.0, 1.0}}
		}},
		{"gap chain without its gap states", "kooza-hier", Kooza, func(doc any) {
			network := obj(doc, "network")
			network["gap_states"] = network["gap_states"].([]any)[:1]
		}},
		{"hierarchy missing a sub-chain", "kooza-hier", Kooza, func(doc any) {
			hier := obj(doc, "classes", 0, "Storage", "Hier")
			hier["Sub"] = hier["Sub"].([]any)[:1]
		}},
		{"storage chain wider than its regions", "inbreadth", InBreadth, func(doc any) {
			obj(doc, "storage")["Regions"] = 3.0
		}},
		{"memory chain over other banks", "inbreadth", InBreadth, func(doc any) {
			obj(doc, "memory")["Banks"] = 0.0
		}},
		{"negative spans per request", "inbreadth", InBreadth, func(doc any) {
			obj(doc, "spans_per_request")["3"] = -4.0
		}},
		{"sample wider than a float64", "inbreadth", InBreadth, func(doc any) {
			obj(doc, "net_bytes")["sample"] = []any{-1e308, 1e308}
		}},
		{"phase of negative subsystem", "indepth", InDepth, func(doc any) {
			jsonAt(doc, "classes", 0, "Phases").([]any)[0] = -1.0
		}},
		{"zipf over 2^40 ranks", "indepth", InDepth, func(doc any) {
			doc.(map[string]any)["interarrival"] = map[string]any{"name": "zipf", "params": []any{1.1, 1 << 40}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LoadModel(bytes.NewReader(saved[c.base]), c.a); err != nil {
				t.Fatalf("unedited %s model refused: %v", c.base, err)
			}
			var doc any
			if err := json.Unmarshal(saved[c.base], &doc); err != nil {
				t.Fatal(err)
			}
			c.edit(doc)
			edited, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModel(bytes.NewReader(edited), c.a); err == nil {
				t.Fatal("LoadModel accepted the edited model")
			}
		})
	}
}

// FuzzLoadModel feeds arbitrary bytes to every approach's LoadModel: each
// input must be refused, or the model it loads must synthesize 64 requests
// without a panic or a NaN.
func FuzzLoadModel(f *testing.F) {
	saved := savedModels(f)
	for _, name := range []string{"kooza", "kooza-hier", "inbreadth", "indepth"} {
		f.Add(saved[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, a := range []Approach{Kooza, InBreadth, InDepth} {
			m, err := LoadModel(bytes.NewReader(data), a)
			if err != nil {
				continue
			}
			tr, err := m.Synthesize(64, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatalf("%s: loaded, then refused to synthesize: %v", a, err)
			}
			if tr.Len() != 64 {
				t.Fatalf("%s: synthesized %d requests, want 64", a, tr.Len())
			}
			for _, r := range tr.Requests {
				if math.IsNaN(r.Arrival) {
					t.Fatalf("%s: request %d arrives at NaN", a, r.ID)
				}
				for _, sp := range r.Spans {
					if math.IsNaN(sp.Start) || math.IsNaN(sp.Duration) || math.IsNaN(sp.Util) {
						t.Fatalf("%s: request %d has a NaN span %+v", a, r.ID, sp)
					}
				}
			}
		}
	})
}
