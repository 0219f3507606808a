package store_test

import (
	"fmt"
	"sync"
	"testing"

	"whopay/internal/store"
)

// memJournal records mutations in order (and can fail on demand).
type memJournal struct {
	mu   sync.Mutex
	muts []journalMut
	fail error
}

type journalMut struct {
	table string
	del   bool
	key   string
	val   string
}

func (j *memJournal) LogSet(table string, key, val []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return j.fail
	}
	j.muts = append(j.muts, journalMut{table: table, key: string(key), val: string(val)})
	return nil
}

func (j *memJournal) LogDelete(table string, key []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fail != nil {
		return j.fail
	}
	j.muts = append(j.muts, journalMut{table: table, del: true, key: string(key)})
	return nil
}

func newDurable(j store.Journal) *store.Durable[string, string] {
	s := store.NewSharded[string, string](4, store.StringHash[string])
	return store.NewDurable(s, "t", j, store.StringCodec[string](), store.StringCodec[string]())
}

func TestDurableJournalsMutations(t *testing.T) {
	j := &memJournal{}
	d := newDurable(j)

	d.Set("a", "1")
	if !d.Insert("b", "2") {
		t.Fatal("Insert b failed")
	}
	if d.Insert("b", "3") {
		t.Fatal("duplicate Insert succeeded")
	}
	d.GetOrInsert("c", func() string { return "4" })
	d.GetOrInsert("c", func() string { return "nope" })
	d.Compute("a", func(cur string, _ bool) (string, store.Op) { return cur + "!", store.OpSet })
	d.ComputeIfPresent("b", func(string) (string, store.Op) { return "", store.OpDelete })
	if _, ok := d.GetAndDelete("c"); !ok {
		t.Fatal("GetAndDelete c missed")
	}
	if d.Delete("missing") {
		t.Fatal("Delete of absent key reported true")
	}

	want := []journalMut{
		{table: "t", key: "a", val: "1"},
		{table: "t", key: "b", val: "2"},
		{table: "t", key: "c", val: "4"},
		{table: "t", key: "a", val: "1!"},
		{table: "t", del: true, key: "b"},
		{table: "t", del: true, key: "c"},
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.muts) != len(want) {
		t.Fatalf("journal has %d mutations, want %d: %+v", len(j.muts), len(want), j.muts)
	}
	for i := range want {
		if j.muts[i] != want[i] {
			t.Fatalf("journal[%d] = %+v, want %+v", i, j.muts[i], want[i])
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("unexpected Err: %v", err)
	}
}

func TestDurableReplayReproducesState(t *testing.T) {
	j := &memJournal{}
	d := newDurable(j)
	d.Set("a", "1")
	d.Set("b", "2")
	d.Set("a", "3")
	d.Delete("b")
	d.Set("c", "4")

	replayed := newDurable(nil)
	j.mu.Lock()
	muts := append([]journalMut(nil), j.muts...)
	j.mu.Unlock()
	for _, m := range muts {
		var err error
		if m.del {
			err = replayed.ApplyDelete([]byte(m.key))
		} else {
			err = replayed.ApplySet([]byte(m.key), []byte(m.val))
		}
		if err != nil {
			t.Fatalf("apply %+v: %v", m, err)
		}
	}
	got := replayed.Snapshot()
	want := map[string]string{"a": "3", "c": "4"}
	if len(got) != len(want) {
		t.Fatalf("replayed state %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("replayed[%q] = %q, want %q", k, got[k], v)
		}
	}
}

func TestDurableNilJournalPassthrough(t *testing.T) {
	d := newDurable(nil)
	d.Set("a", "1")
	if v, ok := d.Get("a"); !ok || v != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err on passthrough: %v", err)
	}
}

// TestDurableConcurrentSameKeyOrder hammers one key: the journal's final
// record for the key must match the store's final value (journal order is
// memory order per key, because logging happens under the shard lock).
func TestDurableConcurrentSameKeyOrder(t *testing.T) {
	j := &memJournal{}
	d := newDurable(j)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.Set("hot", fmt.Sprintf("%d-%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	final, _ := d.Get("hot")
	j.mu.Lock()
	defer j.mu.Unlock()
	last := j.muts[len(j.muts)-1]
	if last.key != "hot" || last.val != final {
		t.Fatalf("journal tail %+v disagrees with store value %q", last, final)
	}
}

func TestDurableErrCapturesJournalFailure(t *testing.T) {
	j := &memJournal{fail: fmt.Errorf("disk gone")}
	d := newDurable(j)
	d.Set("a", "1")
	// The in-memory mutation still applies (responses must not diverge
	// from the nil-journal path); the failure is retained.
	if v, ok := d.Get("a"); !ok || v != "1" {
		t.Fatalf("mutation dropped on journal failure: %q %v", v, ok)
	}
	if err := d.Err(); err == nil {
		t.Fatal("Err lost the journal failure")
	}
}

func TestCodecs(t *testing.T) {
	type rec struct{ A, B string }
	g := store.GobCodec[rec]()
	rb, err := g.Enc(rec{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	rb2, err := g.Enc(rec{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if string(rb) != string(rb2) {
		t.Fatal("gob codec is not deterministic for equal input")
	}
	if v, err := g.Dec(rb); err != nil || v != (rec{"x", "y"}) {
		t.Fatalf("gob round trip: %+v %v", v, err)
	}
}
