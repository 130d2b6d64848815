package measure

import (
	"fmt"
	"testing"
)

// TestStreamTailsPinned pins every epoch of three seeded streams, one per
// scheme, to the fingerprints recorded when each link's tail state was its
// own dense sketch: the mean, p95, p99 and mean+sd matrices of every epoch.
// The streams are sized so that some links stay sparse and some hold
// thousands of samples, so both of a link's sketch layouts are covered; any
// change in how samples are stored must not move a single bit.
func TestStreamTailsPinned(t *testing.T) {
	dc, insts := testFleet(t, 9, 77)
	for _, c := range []struct {
		scheme Scheme
		want   []string
	}{
		{Staged, []string{
			"3120 714cdc002405f9dd d495c025ae611868 9bea488071f91550 d5ae733bc31bce8c",
			"6277 5a0f818006c4339a c721968948e8c5ed 976547bb535f0142 6b9c936f8659372b",
			"9410 81267e065f4a3848 2b5dfa400a1f3649 fca3ed962ef330e9 41fae13b6a310cd8",
			"12530 1497378c9213ce5a 74c558dc1c21fd4c 221247eac8396cfd 26bf11f975cc28e2",
			"15680 14d16a862cc0e70e 976ccf571c0b572e f9ad273d8adf88ef c53a5306f8da0475",
			"18800 620a5a9a052fb5b5 81ec40b81e7532c3 22eae8565b5ef53 d3c04106cadf77c8",
			"21951 87418b232cd31c04 f510715ec2b7d338 37cfafc6fd700ca3 8b47530effbb813e",
			"25091 a4145fc5b2184d8e f13e74019af400bd 92dbfda952db4977 eeb38a4d6275040b",
		}},
		{Uncoordinated, []string{
			"5665 33e3bfbe43c84078 1f4ccfe50676d160 756991f4d4819a27 513ce0a0ddac541d",
			"11351 2b5a4fff090ecc57 1cfd33445046d305 96ec23858b7e1c5b 98c53645b3c8f183",
			"17049 243c883f37ce5ba5 896eba522c30f6ef 5f4340bae733c702 7c00cb762a913def",
			"22777 fc20ab143ca4b110 edba7b291ec060eb b11d2b16aa304d93 7ff5ddcf87fb18fe",
			"28482 85a99931e10b692e b74e10cd33f3f296 b11f47ed4f2e7f3f e8549fbdc9e53a75",
			"34167 62fb7f99e799b7f5 36bd0ae36ed91585 32d16177295005ec 7c3f17064ff9a15e",
			"39875 81dd973afc9f943 93dfbc02a485b331 89136819de4531c0 3f22687506df9e12",
			"45547 15211c3267376e1f efd91e0feea7cc94 3ef62c8e70b2cad6 96dce7fd1d751bf5",
		}},
		{Token, []string{
			"619 48b32ddbf862eb37 1cdd4841f9a66e57 1cdd4841f9a66e57 8d3ee4e4d5231489",
			"1239 ce34ea3556109aaa d61ecbabcc8dcbbc d61ecbabcc8dcbbc 4b207c73f55b3c6c",
			"1859 397832b29143f2d5 d2daca3357c05ca1 7b17a59702091000 24ee15860c549fa1",
			"2482 60192f73ffc77543 53af57f2e661763c 4a8ddfa3cf55ae4f 8bd86142dae33bb1",
			"3104 a9187346874a0b26 a1183d79ed90e507 9460d2b73eed323c 263e7956de3abb0c",
			"3727 50451c9eb5e84dc eae04d2671b9c56b 773791965d0ca98 46060a41e546a099",
			"4348 fadd71a3a9ae022b 318269b178a7a549 b90bda80db809ba2 4beb02b514c65b04",
			"4972 8212ce287d1a65a9 fed68f905eca7814 cd398d99cf8ed8ab 10bed51984cb492",
		}},
	} {
		st, err := Stream(dc, insts, Options{Scheme: c.scheme, DurationMS: 4000, Seed: 5,
			SnapshotEveryMS: 500, TailAlpha: DefaultTailAlpha})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for ep := range st.Epochs {
			got = append(got, fmt.Sprintf("%d %x %x %x %x", ep.Samples, ep.Fingerprint,
				ep.Tail(95).Fingerprint, ep.Tail(99).Fingerprint, ep.MeanPlusStd.Fingerprint))
		}
		st.Wait()
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d epochs, want %d", c.scheme, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s epoch %d: samples and fingerprints %q, want %q", c.scheme, i+1, got[i], c.want[i])
			}
		}
	}
}
