package pmkv

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// scriptDigest hashes every op a spec expands to: its round, session, op,
// key and value bytes, in execution order.
func scriptDigest(spec ScriptSpec) string {
	h := sha256.New()
	for round, batch := range GenScript(spec) {
		for _, op := range batch {
			fmt.Fprintf(h, "%d %d %d %q %x\n", round, op.Sess, op.Op, op.Key, op.Value)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScriptDigests pins the scripted load op for op, values included: the
// three fpdump sections, the in-package crash tests' testSpec, pmkvd's
// selfcheck spec and every case of the fuzz corpus. Every golden and
// crash sweep is a function of these scripts, so a change to how a script
// is produced or carried must leave this table as it is.
func TestScriptDigests(t *testing.T) {
	specs := map[string]ScriptSpec{
		"testSpec":  testSpec(),
		"selfcheck": {Sessions: 6, Rounds: 24, KeySpace: 16, Seed: 42},
	}
	for _, s := range fpdumpSpecs {
		specs[s.name] = s.spec
	}
	for name, data := range fuzzCorpus(t) {
		specs["corpus/"+name] = caseFromBytes(data).ScriptSpec
	}
	want := map[string]string{
		"fpdump":         "bec5e2ec394d48894cb02878e7d9d406a41b5f978b95343858a7f24fbefc2a1d",
		"fpdump-merged":  "106b3594c8608e27f4dec60f5e1395dc6bab35b1a553bb19300294c5ea792cb7",
		"fpdump-long":    "74a9c1be071abc86c38c6ce1ef510251e04669ee35a71ab435dfb2ec0a11b0c3",
		"testSpec":       "aebe91bc8e3a8886118379fda9f9f9a36b4266cc1654ab86167acc182f56eccb",
		"selfcheck":      "e3f2fc1477a8580df4bb15456e69bb7ed34d079d224ea7b40b50cd6b054dd60b",
		"corpus/seed-00": "770379b6fa688ec45ff577d7417ad97e023aef4e4c89688bf0da07157aadef13",
		"corpus/seed-01": "64d3b095b1f139597affc415cbd8240624b4733b4ed8e1a2a6cc54b31abbe7a2",
		"corpus/seed-02": "8d15be59ec8e2f8d17ac5cde0382b115daee6775213a0d6cdd22d4549dc364e5",
		"corpus/seed-03": "cbb2db02222fc9fd5ba486b98512c967b3bb753840992b959da3e9ef964d5d2d",
		"corpus/seed-04": "8821514eafb3ef0c3ff393363996f3d499aaebf0761c5bf946fe48f9d47f9d55",
		"corpus/seed-05": "cdcb01946905e76dbf31644010d930d0551a5b6159933a0c7c472b69b1a9d584",
		"corpus/seed-06": "2a65b4b6b3335d95583aaa724b707ab2bbe007787b9537b6e0e58e8332b2610d",
		"corpus/seed-07": "8cf0d52f4e1ddd2350a87439a969f7512940ed13c16b84c725b221ae15e69f7a",
	}
	if len(specs) != len(want) {
		t.Errorf("%d scripts, %d digests pinned", len(specs), len(want))
	}
	for name, spec := range specs {
		if got := scriptDigest(spec); got != want[name] {
			t.Errorf("%s: script digest %s, want %s", name, got, want[name])
		}
	}
}
