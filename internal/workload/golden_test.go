package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"persistbarriers/internal/trace"
)

// programDigest is the sha256 of a program's exact op stream: each trace's
// length, then every op's kind, address, cycles and token.
func programDigest(p *trace.Program) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(p.Traces)))
	for _, tr := range p.Traces {
		put(uint64(len(tr)))
		for _, op := range tr {
			put(uint64(op.Kind()))
			put(uint64(op.Addr()))
			put(uint64(op.Cycles()))
			put(op.Token())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSizes are the sizes the generators are pinned at: the benchmark's
// full grid (32 threads, 40 micro ops / 400 app ops, seed 1) and one small
// size.
var goldenSizes = []struct {
	name                string
	threads, micro, app int
	seed                uint64
}{
	{"full", 32, 40, 400, 1},
	{"small", 3, 7, 90, 11},
}

// goldenDigests pins every generator's output. A change to how traces
// are built must leave every digest where it is; only a deliberate change
// to what a workload emits may rewrite this table.
var goldenDigests = map[string]string{
	"full/hash":      "a488e226dbacde0f5fa0a9714e8a6a0a6d725d08afe75f17d1e6f62a9fdf937d",
	"full/queue":     "13d2549103fd9b5382159f77d8b236a354af682dc17fc19e517b71246cafa500",
	"full/rbtree":    "34f7f36428687a526afb814c1808e9689045557d5f824726eb815b2de5221fdf",
	"full/sdg":       "4f1b3845d3287b5fd5909ec0812fab82fcfd96e14de31dde422cdc9771cc863a",
	"full/sps":       "4debe01b2f9433de071c1684600fe4d5ca4a57e826acca9f5693d8347969f8bd",
	"full/canneal":   "560ef8c06e42ba0e6f7adddd115416b95550557e81c233741cfce5281c38ae4c",
	"full/dedup":     "8f0ee9fd6da56e175767283f970da4bf74415f96d0d5af4bf7b087be6929eeb0",
	"full/freqmine":  "59b5bab948621e5d8f95e43f235609e74d2b81b669b8e227e803ff47555e02cc",
	"full/barnes":    "cab0a9f075bb8a30759c25488085a9611d2160c35b52cd605535c47ebe09f090",
	"full/cholesky":  "6702f4e9701a64a3f65bea47795e96cb0be37ef92040f1f9fdfaf379941d63c3",
	"full/radix":     "f82583eff65349ce903ab868782bc38c6fa045d7ad06df4541e3eb16da0e6b94",
	"full/intruder":  "45f0aa8ea84f0ec361a6043432a9fa50d838619b9283c5cabe26ea38f0992054",
	"full/ssca2":     "6f50c7c6d53770795725ab4796f00c3340047c769e1ad7e8a38c710dc95f5781",
	"full/vacation":  "66d17d77940bdbc3ac21c9410740056c963d12c7893e9bc4dd11aefe25a58771",
	"small/hash":     "98fbc3bb5d04b80573e72f3981b685036157649a26c5bd6ad495a79d42602164",
	"small/queue":    "f0aeb7751c927ac7f925c5ba9a28d3388e67764f85706a17d26ed74dd77929ab",
	"small/rbtree":   "64a681cda841ca62692e8303543c625a65bd91f34cc157b318400f33fb7d16af",
	"small/sdg":      "b9b206c6e288f516787ebf5e5934fbd59072aa78efcd65a09db4e11c9e4030bb",
	"small/sps":      "b1469f5affdd944e2cfb378ef964620879af4708b612c323aadf3bf230686ff7",
	"small/canneal":  "24eee74294d5ab8957d15b34d4df1a3baf7215d96a95f6ffe5b8bd2a253f9df3",
	"small/dedup":    "28bf32a4e6026a119c45166128921d3765832a274324894c6934d85258b3e296",
	"small/freqmine": "550722c585721b015b5dc3a8a239a7dc06a29c7eb5f80c955e55e805249f32f4",
	"small/barnes":   "e0b66715a79d80dfcea5d7fcce159c6c48d1444449fec670e27c8c92458eb405",
	"small/cholesky": "44332b40c7e5ef14ad6d74c69cf05564169de08fc73b32acc8ec8fe405e14c47",
	"small/radix":    "0a607c4aff51e79c639af7118e697737386f32567021fa48ca1b35bfcd840fb5",
	"small/intruder": "0a829277c11f550627b4462bfece5cd918cf30885ecfe38f4250b2b3347d9733",
	"small/ssca2":    "2782e632acb201cd56eddf9f8bdd69ccfaff7800c45d89bb105152872e213dc7",
	"small/vacation": "8a5b08d09348a15a0bdf883e920914b7887e76a85627ff22fb484afe0662e855",
}

func TestGeneratorGoldenDigests(t *testing.T) {
	for _, sz := range goldenSizes {
		for _, name := range MicrobenchmarkNames() {
			p, err := Microbenchmarks()[name](Spec{Threads: sz.threads, OpsPerThread: sz.micro, Seed: sz.seed})
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, sz.name+"/"+name, p)
		}
		for _, name := range AppNames() {
			p, err := Apps()[name].Generate(Spec{Threads: sz.threads, OpsPerThread: sz.app, Seed: sz.seed})
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, sz.name+"/"+name, p)
		}
	}
}

func checkDigest(t *testing.T, key string, p *trace.Program) {
	t.Helper()
	if got := programDigest(p); got != goldenDigests[key] {
		t.Errorf("%s: digest %s, want %s", key, got, goldenDigests[key])
	}
}
