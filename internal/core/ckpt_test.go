package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/ckpt"
	"hitlist6/internal/ip6"
)

// ckptTinyCfg is the reference-scenario config with durability on:
// journaled chunked ingest plus a checkpoint after every scan.
func ckptTinyCfg(ckdir string) Config {
	cfg := DefaultConfig(1)
	cfg.GFWFilterFromDay = 150
	cfg.SnapshotDays = []int{14, 70, 180}
	cfg.CheckpointDir = ckdir
	cfg.CheckpointEvery = 1
	return cfg
}

// TestJournaledIngestMatchesReference pins that merely turning
// durability on — the journaled chunked-ingest path plus a checkpoint
// after every one of the 29 scans — leaves records and snapshots
// bit-identical to the pre-durability goldens.
func TestJournaledIngestMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n, feeds := tinyWorld(t)
		cfg := ckptTinyCfg(filepath.Join(t.TempDir(), "ckpt"))
		cfg.ScanWorkers = workers
		s := NewService(cfg, n, feeds, nil)
		runDays(t, s, weekly(0, 196))
		compareGolden(t, "reference_tiny.json", goldenFrom(s.Records(), s.Snapshots()),
			fmt.Sprintf("journaled workers=%d", workers))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeMatchesUninterrupted is the durability acceptance gate: a
// timeline interrupted after scan k and resumed from the checkpoint —
// in a fresh process, against a fresh world, with a different worker
// count or memory budget — produces records and snapshots
// bit-identical to the same goldens an uninterrupted run is pinned to.
func TestResumeMatchesUninterrupted(t *testing.T) {
	days := weekly(0, 196)
	cases := []struct {
		label         string
		k             int // scans completed before the "crash"
		first, second func(cfg *Config, scratch string)
	}{
		{"workers 1→4", 10,
			func(c *Config, _ string) { c.ScanWorkers = 1 },
			func(c *Config, _ string) { c.ScanWorkers = 4 }},
		{"workers 4→1", 27,
			func(c *Config, _ string) { c.ScanWorkers = 4 },
			func(c *Config, _ string) { c.ScanWorkers = 1 }},
		{"spill→spill", 12,
			func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill1") },
			func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill2") }},
		{"spill→resident", 20,
			func(c *Config, d string) { c.MemoryBudget = spillBudget; c.SpillDir = filepath.Join(d, "spill1") },
			func(c *Config, _ string) {}},
	}
	for _, tc := range cases {
		scratch := t.TempDir()
		for _, sub := range []string{"spill1", "spill2"} {
			if err := os.MkdirAll(filepath.Join(scratch, sub), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		ckdir := filepath.Join(scratch, "ckpt")

		n, feeds := tinyWorld(t)
		cfg := ckptTinyCfg(ckdir)
		tc.first(&cfg, scratch)
		s := NewService(cfg, n, feeds, nil)
		runDays(t, s, days[:tc.k])
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", tc.label, err)
		}

		n2, feeds2 := tinyWorld(t)
		cfg2 := ckptTinyCfg(ckdir)
		tc.second(&cfg2, scratch)
		s2, err := Resume(ckdir, cfg2, n2, feeds2, nil)
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.label, err)
		}
		if got := len(s2.Records()); got != tc.k {
			t.Fatalf("%s: resumed with %d records, want %d", tc.label, got, tc.k)
		}
		runDays(t, s2, days[tc.k:])
		compareGolden(t, "reference_tiny.json", goldenFrom(s2.Records(), s2.Snapshots()), "resume "+tc.label)
		if err := s2.Close(); err != nil {
			t.Fatalf("%s: close resumed: %v", tc.label, err)
		}
	}
}

// TestResumeGenerationContinuity pins the serving cadence across a
// restart: with ServeEvery=3 an uninterrupted 7-scan run publishes
// generations {1,1,1,2,2,2,3}; interrupting after scan 4 and resuming
// must not republish the stale snapshot (servers answer SERVFAIL until
// the next finalization) and must continue the same sequence — scans 5
// and 6 gated, scan 7 publishing generation 3, not restarting at 1.
func TestResumeGenerationContinuity(t *testing.T) {
	days := weekly(0, 42) // 7 scans
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	mkCfg := func() Config {
		cfg := DefaultConfig(1)
		cfg.ServeSnapshots = true
		cfg.ServeEvery = 3
		cfg.CheckpointDir = ckdir
		cfg.CheckpointEvery = 1
		return cfg
	}

	n, feeds := tinyWorld(t)
	s := NewService(mkCfg(), n, feeds, nil)
	runDays(t, s, days[:4])
	if g := s.QueryHandle().Current().Generation; g != 2 {
		t.Fatalf("generation after 4 scans = %d, want 2", g)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	s2, err := Resume(ckdir, mkCfg(), n2, feeds2, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer s2.Close()
	if s2.QueryHandle().Current() != nil {
		t.Fatal("resume republished a stale snapshot")
	}
	var gens []uint64
	for _, d := range days[4:] {
		runDays(t, s2, []int{d})
		var g uint64
		if cur := s2.QueryHandle().Current(); cur != nil {
			g = cur.Generation
		}
		gens = append(gens, g)
	}
	want := []uint64{0, 0, 3} // scans 5, 6 gated; scan 7 publishes
	for i := range want {
		if gens[i] != want[i] {
			t.Fatalf("generations after resume = %v, want %v", gens, want)
		}
	}
}

// TestResumeRefusesCorruptCheckpoint: a bit-flip in any payload file
// must make Resume refuse loudly with ckpt.ErrCorrupt — never
// half-load.
func TestResumeRefusesCorruptCheckpoint(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	runDays(t, s, weekly(0, 28))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(ckdir, ckptActiveFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	_, err = Resume(ckdir, ckptTinyCfg(ckdir), n2, feeds2, nil)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume from bit-flipped checkpoint: err = %v, want ErrCorrupt", err)
	}
}

// TestResumeRefusesConfigMismatch: a checkpoint taken under one config
// digest must not silently restore into a service with different
// pipeline parameters (here: a different seed).
func TestResumeRefusesConfigMismatch(t *testing.T) {
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	runDays(t, s, weekly(0, 14))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	cfg := ckptTinyCfg(ckdir)
	cfg.Seed = 2
	_, err := Resume(ckdir, cfg, n2, feeds2, nil)
	if err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("resume with mismatched config: err = %v, want config mismatch", err)
	}
}

// TestResumeDiscardsStaleJournal: a journal file next to the checkpoint
// is debris from a crash mid-scan; Resume must discard it and the
// resumed timeline must still match the uninterrupted goldens.
func TestResumeDiscardsStaleJournal(t *testing.T) {
	days := weekly(0, 196)
	ckdir := filepath.Join(t.TempDir(), "ckpt")
	n, feeds := tinyWorld(t)
	s := NewService(ckptTinyCfg(ckdir), n, feeds, nil)
	const k = 9
	runDays(t, s, days[:k])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the SIGKILL-mid-ingest debris: a finished journal holding
	// candidates of the scan that never committed.
	jw, err := ckpt.CreateJournal(JournalPath(ckdir))
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Add(0, ip6.MustParseAddr("2001:100::80")); err != nil {
		t.Fatal(err)
	}
	if err := jw.Finish(); err != nil {
		t.Fatal(err)
	}

	n2, feeds2 := tinyWorld(t)
	s2, err := Resume(ckdir, ckptTinyCfg(ckdir), n2, feeds2, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, _, ok, err := ckpt.JournalStat(JournalPath(ckdir)); err != nil || ok {
		t.Fatalf("stale journal not discarded on resume (ok=%v, err=%v)", ok, err)
	}
	runDays(t, s2, days[k:])
	compareGolden(t, "reference_tiny.json", goldenFrom(s2.Records(), s2.Snapshots()), "resume after stale journal")
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRejectsSpillDirCollision: the checkpoint directory and
// the spill scratch directory must differ — spill compaction deletes
// and rewrites files under its dir, which would destroy a checkpoint.
func TestCheckpointRejectsSpillDirCollision(t *testing.T) {
	dir := t.TempDir()
	n, feeds := tinyWorld(t)
	cfg := DefaultConfig(1)
	cfg.MemoryBudget = spillBudget
	cfg.SpillDir = dir
	s := NewService(cfg, n, feeds, nil)
	defer s.Close()
	runDays(t, s, []int{0})
	if err := s.Checkpoint(dir); err == nil {
		t.Fatal("checkpoint into the spill dir succeeded; want refusal")
	}
}

// TestResumeRefusesMalformedSetPayload: a .hl6 payload whose bytes match
// the manifest CRC but break the sorted-shard contract (here: two shards
// trade their first addresses, so each holds another shard's address)
// must make Resume refuse with ckpt.ErrCorrupt, with and without a
// memory budget — the CRC proves only that bytes are unchanged since
// they were written.
func TestResumeRefusesMalformedSetPayload(t *testing.T) {
	for _, budget := range []int64{0, spillBudget} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			ckdir := filepath.Join(t.TempDir(), "ckpt")
			cfg := DefaultConfig(1)
			cfg.MemoryBudget = budget
			n, feeds := tinyWorld(t)
			s := NewService(cfg, n, feeds, nil)
			runDays(t, s, weekly(0, 28))
			if err := s.Checkpoint(ckdir); err != nil { // one full checkpoint
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			swapShardHeads(t, ckdir, ckptInputSeenFile)

			n2, feeds2 := tinyWorld(t)
			_, err := Resume(ckdir, cfg, n2, feeds2, nil)
			if !errors.Is(err, ckpt.ErrCorrupt) || !errors.Is(err, ip6.ErrMalformedImport) {
				t.Fatalf("resume with a wrong-shard address: err = %v, want ErrCorrupt from the import check", err)
			}
		})
	}
}

// swapShardHeads swaps the first addresses of the first two non-empty
// shards in the .hl6 payload name under dir, then rewrites the
// manifest's CRC so only the content contract is broken.
func swapShardHeads(t *testing.T, dir, name string) {
	t.Helper()
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const header = 16 + 8*ip6.AddrShards
	var heads []int
	off := header
	for sh := 0; sh < ip6.AddrShards && len(heads) < 2; sh++ {
		count := int(binary.LittleEndian.Uint64(b[16+8*sh:]))
		if count > 0 {
			heads = append(heads, off)
		}
		off += count * ip6.AddrBytes
	}
	if len(heads) < 2 {
		t.Fatalf("%s: fewer than two non-empty shards", name)
	}
	var tmp [ip6.AddrBytes]byte
	copy(tmp[:], b[heads[0]:])
	copy(b[heads[0]:heads[0]+ip6.AddrBytes], b[heads[1]:])
	copy(b[heads[1]:], tmp[:])
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ckpt.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Files {
		if m.Files[i].Name == name {
			m.Files[i].CRC = fmt.Sprintf("%016x", crc64.Checksum(b, crc64.MakeTable(crc64.ECMA)))
		}
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ckpt.ManifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}
