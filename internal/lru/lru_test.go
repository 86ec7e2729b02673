package lru

import "testing"

// newTest returns a cache of string keys and aliases charging each alias
// its length in bytes.
func newTest(maxBytes int64, maxAliases int) *Cache[string, string, int] {
	return New[string, string, int](maxBytes, maxAliases, func(a string) int64 { return int64(len(a)) })
}

func wantStats(t *testing.T, c *Cache[string, string, int], want Stats) {
	t.Helper()
	if got := c.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

func TestCounting(t *testing.T) {
	c := newTest(100, 0)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit in an empty cache")
	}
	if _, ok := c.Alias("a"); ok {
		t.Fatal("alias hit in an empty cache")
	}
	wantStats(t, c, Stats{MaxBytes: 100, Misses: 1}) // a Get miss counts, an alias miss does not
	c.Put("k", 1, 10)
	c.AddAlias("k", "a")
	if v, ok := c.Alias("a"); !ok || v != 1 {
		t.Fatalf("alias lookup = %d, %v", v, ok)
	}
	if v, ok := c.Get("k"); !ok || v != 1 {
		t.Fatalf("key lookup = %d, %v", v, ok)
	}
	c.Miss()
	wantStats(t, c, Stats{Entries: 1, Bytes: 11, MaxBytes: 100, Hits: 2, Misses: 2})
}

func TestAliasBoundDropsOldest(t *testing.T) {
	c := newTest(100, 2)
	c.Put("k", 1, 10)
	for _, a := range []string{"a", "bb", "ccc"} {
		c.AddAlias("k", a)
	}
	if _, ok := c.Alias("a"); ok {
		t.Fatal("oldest alias survived past the bound")
	}
	for _, a := range []string{"bb", "ccc"} {
		if _, ok := c.Alias(a); !ok {
			t.Fatalf("alias %q dropped", a)
		}
	}
	// "a"'s byte was refunded: 10 + len("bb") + len("ccc").
	wantStats(t, c, Stats{Entries: 1, Bytes: 15, MaxBytes: 100, Hits: 2})

	// An alias already resolving to an entry is not added again.
	c.AddAlias("k", "ccc")
	c.AddAlias("absent", "dddd")
	wantStats(t, c, Stats{Entries: 1, Bytes: 15, MaxBytes: 100, Hits: 2})
}

func TestAliasesLeaveWithEntry(t *testing.T) {
	c := newTest(25, 0)
	c.Put("old", 1, 10)
	c.AddAlias("old", "a")
	c.AddAlias("old", "b")
	c.Put("new", 2, 14) // 12 + 14 > 25: "old" goes
	if _, ok := c.Alias("a"); ok {
		t.Fatal("alias outlived its entry")
	}
	if _, ok := c.Alias("b"); ok {
		t.Fatal("alias outlived its entry")
	}
	wantStats(t, c, Stats{Entries: 1, Bytes: 14, MaxBytes: 25, Evictions: 1})
}

func TestOversizeEntryKept(t *testing.T) {
	c := newTest(10, 0)
	c.Put("a", 1, 5)
	c.Put("big", 2, 50)
	if v, ok := c.Get("big"); !ok || v != 2 {
		t.Fatal("lone oversize entry evicted")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("older entry survived an oversize insert")
	}
	wantStats(t, c, Stats{Entries: 1, Bytes: 50, MaxBytes: 10, Hits: 1, Misses: 1, Evictions: 1})
}

func TestPutResidentKey(t *testing.T) {
	c := newTest(20, 0)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	if got := c.Put("a", 3, 10); got != 1 {
		t.Fatalf("Put of a resident key returned %d, want the resident 1", got)
	}
	c.Put("c", 4, 10) // evicts the least recently used: "b", not "a"
	if _, ok := c.Get("b"); ok {
		t.Fatal("Put of a resident key did not move it to the front")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("resident value = %d, %v, want 1", v, ok)
	}
	wantStats(t, c, Stats{Entries: 2, Bytes: 20, MaxBytes: 20, Hits: 1, Misses: 1, Evictions: 1})
}
