package workload

import "testing"

func TestZipfianValidate(t *testing.T) {
	cases := []struct {
		n    int
		s    float64
		want bool
	}{
		{0, 0.99, false},
		{-3, 0.99, false},
		{10, 0, false},
		{10, -1, false},
		{1, 0.99, true},
		{1000, 0.99, true},
		{1000, 1.5, true},
	}
	for _, tc := range cases {
		_, err := NewZipfian(tc.n, tc.s, 1)
		if (err == nil) != tc.want {
			t.Errorf("NewZipfian(%d, %v): err=%v, want ok=%v", tc.n, tc.s, err, tc.want)
		}
	}
}

func TestZipfianDeterministic(t *testing.T) {
	a, _ := NewZipfian(1000, 0.99, 42)
	b, _ := NewZipfian(1000, 0.99, 42)
	c, _ := NewZipfian(1000, 0.99, 43)
	same, diff := true, false
	for i := 0; i < 10000; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different sequences")
	}
	if !diff {
		t.Error("different seeds produced identical sequences")
	}
}

func TestZipfianSkew(t *testing.T) {
	// With s=0.99 over 1000 ranks, rank frequencies must be monotone on
	// average and heavily front-loaded: the top 10 ranks carry ~39% of the
	// ideal mass. Check the empirical shape over a large sample.
	const n, draws = 1000, 200000
	z, err := NewZipfian(n, 0.99, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.Next()
		if r < 0 || r >= n {
			t.Fatalf("rank %d out of [0,%d)", r, n)
		}
		counts[r]++
	}
	var top10 int
	for _, c := range counts[:10] {
		top10 += c
	}
	if frac := float64(top10) / draws; frac < 0.30 || frac > 0.50 {
		t.Errorf("top-10 ranks got %.3f of draws, want ~0.39", frac)
	}
	if counts[0] <= counts[n-1] {
		t.Errorf("rank 0 (%d draws) not hotter than rank %d (%d draws)",
			counts[0], n-1, counts[n-1])
	}
}

func TestZipfianSingleRank(t *testing.T) {
	z, err := NewZipfian(1, 0.99, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r := z.Next(); r != 0 {
			t.Fatalf("n=1 drew rank %d", r)
		}
	}
}
