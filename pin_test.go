package confmask

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// outputPins holds the sha256 of the rendered Anonymize output (see
// outputDigest) with DefaultOptions at seeds 1–3, for the eight Table 2
// networks and MultiRegion10x30. Unlike the identity tests, which compare
// two runs of the same build (Parallelism 1 vs N, resumed vs
// uninterrupted), these values are fixed across commits: a change that
// alters any rendered byte of any pinned run fails here, however it
// alters it.
var outputPins = map[string][3]string{
	"Enterprise": {
		"494f3786292502258a2f542d06cb47000116f3e4330f67880d77f3eb83ea2b88",
		"ed74bf3f3f1f9ead53d82def38802260d6019ccfea9612d84175479c6bd1b854",
		"34a78aead11f5c5457700ab169a952117839eaf7408a91f1fe32539b2bd3ab32",
	},
	"University": {
		"a6d2eacac23c3c1446ec5873da28b63ca46e0016a5d691a5faa177b56682599f",
		"b029a43cc61e5e020518f66daa1ac05248570eae91df086f7c0a6cd28e67be97",
		"e5632ee2a9a21c12cdc4731fc499aad49c008831771ea3f99f6fc9f812715e1d",
	},
	"Backbone": {
		"827462a022c86b85fc4fb5c7bb0dba84a2ad2a4f7ad781c8833031a81d530ccb",
		"d42b294567a4922523bb0093659c1f99b4f3515d136d51130729113af951b1d3",
		"71f9e9b42ca4fc2bccd396bc663f26d896f9d1bf3af04d55826df59c1df08190",
	},
	"Bics": {
		"988ce5c23dd0a345d9e6d2147d96d4f3aea240962363e79e7d17cfae268fd79e",
		"28dfb28762b6629a1abf277a8da9d596d34c9c9ca3d285a1832ee48f2b5b4906",
		"3214f285b6534d9ce6f6213b0f07be3064a44ffc9b90b0bc08fc9bb8c4d65380",
	},
	"Columbus": {
		"465302e6ffb7dee92fdb174075a7750ae8a3da306e7326da66cd9e0cb5ac8024",
		"df2423249d6a9aa83900022e8e7821b712816711c0f3e33d146ffb025e169481",
		"c8c099dad2c59da9f0bbc6fae8fb558bbfb6a1d51c2c41632238fcca29653066",
	},
	"USCarrier": {
		"37105e95812f83c3003b476362e367d855921c21db9ae1cfba7cffbdf906a54e",
		"0f7207c5c95bcc5c02d270894ed0f1d94683e194b0fdc1e9494485174a779bbb",
		"14fb2e838e8604567c71e385a56aab38a607dbba06af52e0a8cca7c0bc8f8514",
	},
	"FatTree04": {
		"1292df334ea74f95bdc3d760aa16c9e59a8a26c278fe71671a7392fb68594c58",
		"9b0243278236d79d8e9992c1edd63057c18dfae279468c4299fbdc4552fccef1",
		"ae5683a852fb70afcd0b1d13b8ee2cab9242396912dd3094850fc5bc863956bb",
	},
	"FatTree08": {
		"1f528612288aa4273f2cb005e57bf325c5cd30f37faf6b7af9840decc10d3110",
		"17f706b79adf25c44cd6912519fc3d58a7e2bcd6fc8ea358fb78698479a2387f",
		"001c491bc803a84b83ef9b568ce7318bc834046e6c9a4ced160be54d31b9db66",
	},
	"MultiRegion10x30": {
		"d0913b3f2504fa7f90f60b7b81abc5ece3293682d0b8f323993ba607d11668f3",
		"5e71e2ced1cc72f5fece9030455a0607a89dfb0bf382379589582e235c90e054",
		"6e659788d74ffe1a9d473217efb39b121510cc2b98342723307f4fabbe8b83d2",
	},
}

// strawmanPins holds the same digest for the two baselines of §4.3
// (Options.Strategy "strawman1" and "strawman2") on the eight Table 2
// networks at seeds 1–3. Where the topology stage adds no fake link
// (FatTree04, FatTree08) neither strawman adds a filter, so their values
// equal the ConfMask pins.
var strawmanPins = map[string]map[string][3]string{
	"strawman1": {
		"Enterprise": {
			"c713395cdf3e488e8bee4926cd8b420c1725fbdc7699f252e876f70e272882c7",
			"98d43c5b32572818895f0db5eb122bccb2689e85cf7e599bcf23dfc463dd1e63",
			"e1864fdd0dbae6d24346c09a62ce2890296c4869e5b5a66ef3e5c4bdada7d935",
		},
		"University": {
			"1c8d2ad7913f0b77a74b3f15ba9f4d2e494d8b4f8a78608239206c9dc16eb0b4",
			"72ad012a8818906b28effac8cc16e8634afc5e454927d07c0f880e75c7f8f7c5",
			"b97b2892171f354c1ce6810de1140f667f375938dad7ecde2125942b9a5cf46f",
		},
		"Backbone": {
			"4076592f895318e04ac7c78ac3fd869bc22447aa32f4bc0323735aa35f3a68e4",
			"66ed5ce2ff29a317979d00b7394ca5b4f7a053486909b6d627cae46f9be2245e",
			"88ccdc50c37549216e126fecf8dbac9e9a7e4df2f90f0b60f20730f7aca5b2c9",
		},
		"Bics": {
			"58ec96aed1d5b4ce42ff20154cbd2a8acf5738213d0d66f49a871705a33e53c0",
			"05b7ddc666407cdc9b806c9c2c347af78336082fd813947121f5e4d99ac7f94c",
			"52c7a3c72203d9c1bfd1e0486e8f6913f9180b0dbb50ad45352ea977b238cb9e",
		},
		"Columbus": {
			"01cd0ee7caa9b6a39629ae50c86b33454e455184fadca25ff93518b84b875853",
			"46adcd2f84bee1bd2363d52a2b533236a2b42c8d2c7b85ca2443378824302e41",
			"0805117ad90840c4f82c09315ad9f81b8b11fb428b0901f9f489626858e22187",
		},
		"USCarrier": {
			"6a3a7073d42752f37aa9ba50d25d2ffa06dc73f43150e8054315844f532cb0a2",
			"8dbef3a75c561a4534a21183b026025fe9c0fce792dd667b0185c598d2de5a4a",
			"2199aec61d36b80278b1a79fde8438b3abc6390fdc6c3f310d051ac56f93590c",
		},
		"FatTree04": {
			"1292df334ea74f95bdc3d760aa16c9e59a8a26c278fe71671a7392fb68594c58",
			"9b0243278236d79d8e9992c1edd63057c18dfae279468c4299fbdc4552fccef1",
			"ae5683a852fb70afcd0b1d13b8ee2cab9242396912dd3094850fc5bc863956bb",
		},
		"FatTree08": {
			"1f528612288aa4273f2cb005e57bf325c5cd30f37faf6b7af9840decc10d3110",
			"17f706b79adf25c44cd6912519fc3d58a7e2bcd6fc8ea358fb78698479a2387f",
			"001c491bc803a84b83ef9b568ce7318bc834046e6c9a4ced160be54d31b9db66",
		},
	},
	"strawman2": {
		"Enterprise": {
			"9a4484601368cc32b90b94072a5368cee9b7903f2896ca98ece25cd60b687101",
			"4dda27055182ef54cc84e88e70e9c378d628aa187eea1d8051a576f5276cff8f",
			"f93b24acb7f7cb41da7361a5596912ae739a98dd4bbf8c12596ce52b81a6231f",
		},
		"University": {
			"6938f5952a0d08b9afa3e0a8e2eb9b50c474709503f02602fec427f65177e07d",
			"69036bcb3cb00a28ddb8dd7ffb28c97191db7badbf055f95c67c83051528f024",
			"907738ac705038f39edf87c9791b109d6d1b32fb83e92e4c9b18d47d0877441c",
		},
		"Backbone": {
			"4b93b90f18b38a7af89ee22ae6ac0b59800705009698f1018eb4b7ce87e8af79",
			"e217dcdb569df35a727b37333c9b4cc3be9f3914cb173d5e76e4132bdbe75bf4",
			"95d62c9e6ff99e6485127424e177b95987ef1822bb83a16a315ccff34df020a5",
		},
		"Bics": {
			"3e89d0ae928a6130a1faeac59278c69fe78c1a551543ccee21a3209d91d2e37c",
			"248003e39f9430b2105de116b998d0a923e93cc3531d51b449d6278b5731e0fc",
			"06b46e5da8666554b966fa3518ec0c87f9822f502a1a937658443a3504aa4d8e",
		},
		"Columbus": {
			"c86f2050ce6d13a636a2149a5673759ca370d4e4f809225e45be25d91717b49b",
			"a012be1839d4e394232921fdeb0eda6010045dcdfaffd57bd3d5fbd45b3c4b5f",
			"88d5a5289d2268d8ca70ef048c7201076c3d73f5adf82cce3096a7777e17181f",
		},
		"USCarrier": {
			"12373f2fda5fe0cae53c3b01731c35f26588b947e4fa12a970a0ecc7b2dedce4",
			"2d80876b9b1a32862e3bccf5fad4758f5b13975a14be26af56b44272fb72a555",
			"75e4197a74bb568468b7e2ccd71a1a0dd17d8a3ca6002aa9475788d2533efcc4",
		},
		"FatTree04": {
			"1292df334ea74f95bdc3d760aa16c9e59a8a26c278fe71671a7392fb68594c58",
			"9b0243278236d79d8e9992c1edd63057c18dfae279468c4299fbdc4552fccef1",
			"ae5683a852fb70afcd0b1d13b8ee2cab9242396912dd3094850fc5bc863956bb",
		},
		"FatTree08": {
			"1f528612288aa4273f2cb005e57bf325c5cd30f37faf6b7af9840decc10d3110",
			"17f706b79adf25c44cd6912519fc3d58a7e2bcd6fc8ea358fb78698479a2387f",
			"001c491bc803a84b83ef9b568ce7318bc834046e6c9a4ced160be54d31b9db66",
		},
	},
}

// outputDigest hashes a rendered configuration set in device-name order,
// each device contributing its name and its text, both NUL-terminated.
func outputDigest(configs map[string]string) string {
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%s\x00", n, configs[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOutputPins anonymizes every pinned network at seeds 1–3 and
// compares the output digest against the committed value.
// MultiRegion10x30 is skipped under -short.
func TestOutputPins(t *testing.T) {
	names := append(ExampleNetworks(), "MultiRegion10x30")
	if len(names) != len(outputPins) {
		t.Fatalf("pinned %d networks, want %d", len(outputPins), len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			if name == "MultiRegion10x30" && testing.Short() {
				t.Skip("scale network")
			}
			want, ok := outputPins[name]
			if !ok {
				t.Fatalf("no pin for %s", name)
			}
			configs := exampleConfigs(t, name)
			for seed := int64(1); seed <= 3; seed++ {
				opts := DefaultOptions()
				opts.Seed = seed
				out, _, err := Anonymize(configs, opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := outputDigest(out); got != want[seed-1] {
					t.Errorf("seed %d: output sha256 %s, pinned %s", seed, got, want[seed-1])
				}
			}
		})
	}
}

// TestStrawmanOutputPins anonymizes every Table 2 network at seeds 1–3
// with each strawman strategy and compares the output digest against the
// committed value. Skipped under -short.
func TestStrawmanOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("strawman pins")
	}
	for _, strategy := range []string{"strawman1", "strawman2"} {
		pins := strawmanPins[strategy]
		if len(pins) != len(ExampleNetworks()) {
			t.Fatalf("%s: pinned %d networks, want %d", strategy, len(pins), len(ExampleNetworks()))
		}
		for _, name := range ExampleNetworks() {
			t.Run(strategy+"/"+name, func(t *testing.T) {
				want, ok := pins[name]
				if !ok {
					t.Fatalf("no pin for %s", name)
				}
				configs := exampleConfigs(t, name)
				for seed := int64(1); seed <= 3; seed++ {
					opts := DefaultOptions()
					opts.Seed = seed
					opts.Strategy = strategy
					out, _, err := Anonymize(configs, opts)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if got := outputDigest(out); got != want[seed-1] {
						t.Errorf("seed %d: output sha256 %s, pinned %s", seed, got, want[seed-1])
					}
				}
			})
		}
	}
}
