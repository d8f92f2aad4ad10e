package engine_test

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/engine"
	_ "repro/internal/engine/all"
	"repro/internal/rng"
)

// hashWallWorkloads are the small inputs of the all-miner hash wall:
// three realistic shapes (two of them at two support thresholds), plus the
// degenerate shapes every miner's dispatcher must handle outright — an
// empty dataset, a single row, a nested chain (one path, one closed set
// per prefix), and a threshold above the row count.
var hashWallWorkloads = []struct {
	name     string
	d        func() *dataset.Dataset
	minCount int
}{
	{"empty", func() *dataset.Dataset { return dataset.MustNew(nil) }, 1},
	{"onerow", func() *dataset.Dataset { return dataset.MustNew([][]int{{0, 2, 3, 5}}) }, 1},
	{"chain", func() *dataset.Dataset {
		var rows [][]int
		for i := 1; i <= 8; i++ {
			row := make([]int, i)
			for j := range row {
				row[j] = j
			}
			rows = append(rows, row)
		}
		return dataset.MustNew(rows)
	}, 2},
	{"aboverows", func() *dataset.Dataset { return datagen.DiagPlus(12, 6, 11) }, 19},
	{"diagplus/4", func() *dataset.Dataset { return datagen.DiagPlus(12, 6, 11) }, 4},
	{"diagplus/7", func() *dataset.Dataset { return datagen.DiagPlus(12, 6, 11) }, 7},
	{"diag/5", func() *dataset.Dataset { return datagen.Diag(10) }, 5},
	{"random/4", func() *dataset.Dataset { return datagen.Random(rng.New(3), 60, 24, 0.4) }, 4},
	{"random/9", func() *dataset.Dataset { return datagen.Random(rng.New(3), 60, 24, 0.4) }, 9},
}

// hashWall pins the ReportHash of every registered miner on every
// hashWallWorkloads entry at Parallelism 2, keyed "<algorithm>/<workload>".
// A refactor of the scheduler, the task-order merge or the shard adapters
// must leave every entry unchanged; an entry changes only when a miner's
// answer is meant to change, and then the new value is recorded here.
var hashWall = map[string]string{
	"apriori/empty":         "ebca52469e59f424b576d3ce0927758ec4d9b72b9ee1fec942c4f5cc2fa28731",
	"apriori/onerow":        "c3fcb8571d26b8cdcf28d2ddeb9e2a68e1550ed1b4959c396b34b5827b238726",
	"apriori/chain":         "78be17fec9c5131d5118904a9e575c9840f9d48f3366e78ec8f6300ce92b9cda",
	"apriori/aboverows":     "ebca52469e59f424b576d3ce0927758ec4d9b72b9ee1fec942c4f5cc2fa28731",
	"apriori/diagplus/4":    "767a9fe5cbfee0a15a339386de0b987a2f11ce211ce8c9684978162741ad6c16",
	"apriori/diagplus/7":    "c2887252bd44c12882df9faf68b0c7f1cad7c79fa4b4300bfe0035393ed1bd4d",
	"apriori/diag/5":        "aee9532fd2e7952310e011e90e41e4b1ff93a1eb029286e4c000baffb52c3e69",
	"apriori/random/4":      "894ea93875268e7300500d48d330ed5fdbcdd8bc3f325b4ea676546e6d3295e3",
	"apriori/random/9":      "5f7d0dded7bef6033e4e7e2cafe09cde17e5fc08dd3e1fdadb0aab49dea70450",
	"closed/empty":          "cc6241c4f8dcd74e54f2a1304ebb066b53fd97bdfd71f7a838d671b873340eb9",
	"closed/onerow":         "4ac7843fc5bdcb8ab163ac0a02bcbf5d0939d13a5d65b3c67332be8667f7c1e4",
	"closed/chain":          "3c54205c4d584465eb7189bed27ce405dd1874f0c3fa560d2ea927b6425408cf",
	"closed/aboverows":      "cc6241c4f8dcd74e54f2a1304ebb066b53fd97bdfd71f7a838d671b873340eb9",
	"closed/diagplus/4":     "a307857ab19123cba2e1ab460b6add7672dc7d06846a5cf1371aa8d1d2421b17",
	"closed/diagplus/7":     "fc53fd21292ec254ab33b52ab6eb1038c7dc3370ff4df68505cb6553e1cf4f84",
	"closed/diag/5":         "566a49e41409b7ce3935ec22e2f00ac9c245d1a6ea6d4739f8c4b156888a0bee",
	"closed/random/4":       "1de7ddf3930601ddbb2832a309b023c075c9270b9e2e745d90f799473f21731b",
	"closed/random/9":       "098a111636791e8131886c58e40e53fa352786c4c6fa6a9f6d3b97107f4733d9",
	"closedrows/empty":      "b96a40e44ac5df89ee84b89e4ccbda3a7b9bec3b6e2c1314935dba3ceb0c57d3",
	"closedrows/onerow":     "3871e42737947e748997793bdf8644466d1c6315b18c0b2d7bea5ea53c4d6640",
	"closedrows/chain":      "0cb36c5db9ee8500b052c71689d28efe5c3bc4abd317bf950851103a70e6dcb3",
	"closedrows/aboverows":  "b96a40e44ac5df89ee84b89e4ccbda3a7b9bec3b6e2c1314935dba3ceb0c57d3",
	"closedrows/diagplus/4": "20e7a9689d45c6d36dc203ac6bf18232f57eb63e3b95644e98bc1a3f59b373c0",
	"closedrows/diagplus/7": "b4a96731e3bc4519776b2094a3fb3df4a82d8d4146dbf4f90495385a57d1d494",
	"closedrows/diag/5":     "3f1c4eff9a8e9c0fed447d58c2c9944a7572e550d21c6f5abd9dadc302665508",
	"closedrows/random/4":   "95aba7e5a595d3d0cf755db20b7ea08136673487704d49f64814c509193afc10",
	"closedrows/random/9":   "46f9d485d2bba9a0d9bf7c53b83eb4e6edf33f8e7c6f2d2ac319e550ab1b20b4",
	"eclat/empty":           "3e3214462085e5d6b25bd64219de632c11c035225aa0863263a93e5ab57c25f1",
	"eclat/onerow":          "368c54a3dc944f2d1d49fbb8768bfe17886a00bc26cef9d202f9acc82383a7ca",
	"eclat/chain":           "85af3901cde9dafd765618a77957a5c40997d6a8d28e2067bef91f7e172b4cc0",
	"eclat/aboverows":       "3e3214462085e5d6b25bd64219de632c11c035225aa0863263a93e5ab57c25f1",
	"eclat/diagplus/4":      "7d7ef9305e196f2a343830064754ee27a82642dc20072fa9da3d6fc391b26985",
	"eclat/diagplus/7":      "7fa553b6ff65f99db8fd083dbdd670540d5aae44d43302860091fd832f41c641",
	"eclat/diag/5":          "794b4af5cd46262ac10a42a7a42b9de1fedd2175c3f99fbc594ea650327abefa",
	"eclat/random/4":        "beb914715227f1d202b1a5a519cbeaefce6c384b504765118abf908205a5bb7f",
	"eclat/random/9":        "8f4e22c6d7cf8f9de8d63e6eba440429e3ed44c2b0b89b6fc8eac01f41fa93a6",
	"fpgrowth/empty":        "52cdadc5f2082b3768d7a6a4cd8da94c7dd00d0e258e954da0e9b84a619f63bf",
	"fpgrowth/onerow":       "8e3f79598873a015a0e928f2fc690adfed91d8785647b9edbac8c36e296b5724",
	"fpgrowth/chain":        "d562fd1fa36c48a6a00dc1351a01320c173148ebebff69ff90fbced327c23eac",
	"fpgrowth/aboverows":    "52cdadc5f2082b3768d7a6a4cd8da94c7dd00d0e258e954da0e9b84a619f63bf",
	"fpgrowth/diagplus/4":   "95f8207f7e0994d9393e46ada00b14f89f60ec25e414ed8581f1c4584dd15c5c",
	"fpgrowth/diagplus/7":   "8e54d32f6afb425e01919511ffec7e254c70bce4df02d1c0410ba0688be9808d",
	"fpgrowth/diag/5":       "9dfdd4a6b425f58c98b955ee7fb0a2592b3f6aff4b07bd576049ea609d816c6c",
	"fpgrowth/random/4":     "fbaae9ed676a56878e96d8cedc33f1a691be9c64678c698309df761308529fe7",
	"fpgrowth/random/9":     "6ab24e250b032554d57a29a89697d757381f772f4418ac6dfc9fede03aff8c2d",
	"fusion/empty":          "b24396a29f1e9160dc19af6d8ffa754c8b0ce4f1caaf9fab11058412e9b232bf",
	"fusion/onerow":         "7d8ff61a06f1498734b7993bcceb9660a40a8ce2e0d99a6891fc8709c3bb1731",
	"fusion/chain":          "433c389ac76000748e2bea806f815bf623e12d34fb571f08939754d437c694c6",
	"fusion/aboverows":      "b24396a29f1e9160dc19af6d8ffa754c8b0ce4f1caaf9fab11058412e9b232bf",
	"fusion/diagplus/4":     "f36d1169395f1ea702231543feaf59c7df0210061dd9af496576b86d73533e3c",
	"fusion/diagplus/7":     "92c45fbbf8a5031ad5c4e5ffeccae7465ba4941495b4914751c7d150f85917e4",
	"fusion/diag/5":         "446063dc96772bb0b48a055b268313b9e330c9255acb61f9cfce276442b484bb",
	"fusion/random/4":       "8ab4137eaa39c424cfc15e36ebdce89e12ccc7f57528bf677cb5f94884fe64a4",
	"fusion/random/9":       "b891eb65ea26012e34b065d32d0056f13d820271ecdf1b1b46624ee3d8286ae7",
	"maximal/empty":         "a8e38cb7db8cd3706813756608ddb49ed80a293998b87dab26cf6899fd1a1224",
	"maximal/onerow":        "73189619d18bbf5aacba548d533a0da019c42e8a5a8ba90d28f094eaf2188e0d",
	"maximal/chain":         "fd07343b2d22ff0b1f7c203b648ed2448778de2840431969904f894ce28c21e2",
	"maximal/aboverows":     "a8e38cb7db8cd3706813756608ddb49ed80a293998b87dab26cf6899fd1a1224",
	"maximal/diagplus/4":    "fca8ae8d35a2c3d98476e6b06a0f9ecd127722b16173451b3f09e99de96a9529",
	"maximal/diagplus/7":    "65c6ebf83722894e20b81006530447f94fe9dc5be8acd7658acb7aab0d7b09c2",
	"maximal/diag/5":        "d35a463fe61ae4c54b18ba062517edc513e4dd6f66b31776dd781f953eca2c54",
	"maximal/random/4":      "2d64f7f9b24208e1242a98cb8f0242d9d5c417f3cc41dd5931b7d9b26f92f404",
	"maximal/random/9":      "199b11e6094c1e8419c18eb1aeff683ec8e3beab7f93eb2a8183e96ab7fcf3cf",
	"seqfusion/empty":       "b0aba628f824a831877a9245f8e68fef80af804cb8b200f81ab8faefb5122171",
	"seqfusion/onerow":      "c18bc822c057f428deccd19647d7706d21428dae96b151bb0d2f53db0ab008be",
	"seqfusion/chain":       "87500ddada21b33a4e259422261c2beec424b1bf3aaee1ac8f4318a6a1b2ec72",
	"seqfusion/aboverows":   "b0aba628f824a831877a9245f8e68fef80af804cb8b200f81ab8faefb5122171",
	"seqfusion/diagplus/4":  "70419f43ef83759b15d29f42d47571239a42e2c96f522c74b920457756b2a0bf",
	"seqfusion/diagplus/7":  "fd7c338c53c7e50c82b1997d3e3d3de6885a103e9a5ec76c3c108ac8ea59732e",
	"seqfusion/diag/5":      "b82b5a4f1a18b7bf0985edb093933f340db0e071186b3e603098b10552316b53",
	"seqfusion/random/4":    "aba4b3aab2ce78f32cd9fde437af57104ada181deba8b02827991102debfbfb8",
	"seqfusion/random/9":    "3ad940e7819453c6541945a232770ac16048fb0fe163e4367109c57a694d7366",
	"topk/empty":            "3413464a328a499c6574501695f6d4ea36b5156547540f0d95a2003c3c3e893f",
	"topk/onerow":           "df7487be7cfb869e269416dc9986101a87227714a98858af5d60d377e8a94c98",
	"topk/chain":            "0b9af410b280cd92e3ae02920a31b288da66c63cd6477e302c4fe759c1e5ef32",
	"topk/aboverows":        "3413464a328a499c6574501695f6d4ea36b5156547540f0d95a2003c3c3e893f",
	"topk/diagplus/4":       "51f309b108f71d6350b7b8d7ce09ce4f9983e04a4ea473f859ccf328403bd22c",
	"topk/diagplus/7":       "8ba84365b2aa41e8b9197dbdb6ed53fa2d358101bffb2096e1f71b1f544757cb",
	"topk/diag/5":           "9cd222c7b3db92ea04e5070432515dafaa2092f9a60c7d75c0d40fcd9797b9d0",
	"topk/random/4":         "e3753a7fc874419fe0d27014738372c064c54d9425e39ab65ccc5f4f9711ed73",
	"topk/random/9":         "6ace8bb1950db63dfed941e06cf7b32662af661e3cc2d9e8f62c24cef8eccda4",
}

// TestReportHashWall mines every registered algorithm on every hash-wall
// workload at Parallelism 2 and compares the ReportHash with the pinned
// table. The table must cover every registered algorithm × workload, so
// adding a miner without recording its hashes fails here too.
func TestReportHashWall(t *testing.T) {
	ctx := context.Background()
	seen := 0
	for _, alg := range engine.All() {
		for _, w := range hashWallWorkloads {
			key := alg.Name() + "/" + w.name
			opts := conformanceOpts()
			opts.MinCount = w.minCount
			opts.Parallelism = 2
			rep, err := alg.Mine(ctx, w.d(), opts)
			got := "error"
			if err == nil {
				got = engine.ReportHash(rep)
			}
			want, ok := hashWall[key]
			if !ok {
				t.Errorf("%s: no pinned hash (got %s)", key, got)
				continue
			}
			seen++
			if got != want {
				t.Errorf("%s: ReportHash %s, want %s", key, got, want)
			}
		}
	}
	if seen != len(hashWall) {
		t.Errorf("hash wall pins %d entries, only %d matched a registered algorithm × workload", len(hashWall), seen)
	}
}
