package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/maliva/maliva/internal/engine"
)

// USExtent approximates the continental-US bounding box used by the paper's
// map visualizations.
var USExtent = engine.Rect{MinLon: -124.8, MinLat: 24.4, MaxLon: -66.9, MaxLat: 49.4}

// NYCExtent is the New York City bounding box for the taxi dataset.
var NYCExtent = engine.Rect{MinLon: -74.26, MinLat: 40.47, MaxLon: -73.69, MaxLat: 40.92}

// Dataset bundles a database with the metadata query generation needs.
type Dataset struct {
	Name string
	DB   *engine.DB
	// Main is the fact-table name queries select from.
	Main string
	// FilterCols are the columns carrying selection conditions, in the
	// predicate order used by query generation (Table 1's "Filtering
	// Attributes").
	FilterCols []string
	// OutputCols are the projected columns (Table 1's "Output Attributes").
	OutputCols []string
	// TimeOrigin/TimeSpanDays delimit the temporal domain.
	TimeOrigin   time.Time
	TimeSpanDays int
	// Extent is the spatial domain (zero for non-spatial datasets).
	Extent engine.Rect
	// Join describes the optional join workload (Twitter only).
	JoinTable    string
	JoinLeftCol  string
	JoinRightCol string
	JoinFilter   string // filter column on the join table
}

// Config sizes a generated dataset.
type Config struct {
	Rows  int     // stored rows
	Scale float64 // real rows = Rows × Scale
	Seed  int64
}

// TwitterConfig returns the default Twitter sizing: 120k stored rows
// simulating the paper's 100M tweets.
func TwitterConfig() Config { return Config{Rows: 120_000, Scale: 100e6 / 120_000, Seed: 42} }

// TaxiConfig simulates 500M taxi trips.
func TaxiConfig() Config { return Config{Rows: 150_000, Scale: 500e6 / 150_000, Seed: 43} }

// TPCHConfig simulates a 300M-row lineitem table.
func TPCHConfig() Config { return Config{Rows: 150_000, Scale: 300e6 / 150_000, Seed: 44} }

// cityCluster is a 2-D Gaussian population cluster.
type cityCluster struct {
	center engine.Point
	sigma  float64
	weight float64
}

var usCities = []cityCluster{
	{engine.Point{Lon: -74.0, Lat: 40.7}, 0.8, 0.16},   // New York
	{engine.Point{Lon: -118.2, Lat: 34.1}, 0.9, 0.12},  // Los Angeles
	{engine.Point{Lon: -87.6, Lat: 41.9}, 0.7, 0.08},   // Chicago
	{engine.Point{Lon: -95.4, Lat: 29.8}, 0.8, 0.07},   // Houston
	{engine.Point{Lon: -112.1, Lat: 33.4}, 0.7, 0.05},  // Phoenix
	{engine.Point{Lon: -75.2, Lat: 39.9}, 0.6, 0.05},   // Philadelphia
	{engine.Point{Lon: -122.4, Lat: 37.8}, 0.6, 0.06},  // San Francisco
	{engine.Point{Lon: -84.4, Lat: 33.7}, 0.7, 0.05},   // Atlanta
	{engine.Point{Lon: -80.2, Lat: 25.8}, 0.5, 0.05},   // Miami
	{engine.Point{Lon: -122.3, Lat: 47.6}, 0.6, 0.04},  // Seattle
	{engine.Point{Lon: -104.99, Lat: 39.7}, 0.7, 0.04}, // Denver
	{engine.Point{Lon: -97.7, Lat: 30.3}, 0.7, 0.04},   // Austin
}

// samplePoint draws a point from the cluster mixture, clamped to extent;
// a uniform background component covers rural areas.
func samplePoint(rng *rand.Rand, clusters []cityCluster, extent engine.Rect, background float64) engine.Point {
	if rng.Float64() < background {
		return engine.Point{
			Lon: extent.MinLon + rng.Float64()*(extent.MaxLon-extent.MinLon),
			Lat: extent.MinLat + rng.Float64()*(extent.MaxLat-extent.MinLat),
		}
	}
	r := rng.Float64()
	var c cityCluster
	for _, cc := range clusters {
		if r < cc.weight {
			c = cc
			break
		}
		r -= cc.weight
	}
	if c.sigma == 0 {
		c = clusters[len(clusters)-1]
	}
	p := engine.Point{
		Lon: c.center.Lon + rng.NormFloat64()*c.sigma,
		Lat: c.center.Lat + rng.NormFloat64()*c.sigma*0.7,
	}
	p.Lon = clamp(p.Lon, extent.MinLon, extent.MaxLon)
	p.Lat = clamp(p.Lat, extent.MinLat, extent.MaxLat)
	return p
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Twitter generates the Table 1 Twitter dataset: a tweets fact table with a
// Zipf-vocabulary text column, timestamps over Nov 2015–Jan 2017, clustered
// US geo-coordinates and user stats, plus a users dimension table for the
// join workload. Indexes: inverted(text), B+-tree(created_at, user stats),
// R-tree(coordinates).
func Twitter(cfg Config) (*Dataset, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := engine.NewDB(engine.ProfilePostgres(), cfg.Seed)
	t := engine.NewTable("tweets", cfg.Scale)

	const vocabSize = 6000
	zipf := rand.NewZipf(rng, 1.45, 20, vocabSize-1)
	for w := 0; w < vocabSize; w++ {
		t.Vocab.Intern(fmt.Sprintf("word%04d", w))
	}

	origin := time.Date(2015, 11, 1, 0, 0, 0, 0, time.UTC)
	spanDays := 457 // Nov 2015 – Jan 2017

	n := cfg.Rows
	ids := make([]int64, n)
	texts := make([][]uint32, n)
	created := make([]int64, n)
	coords := make([]engine.Point, n)
	statuses := make([]int64, n)
	followers := make([]int64, n)
	userIDs := make([]int64, n)

	numUsers := n / 30
	if numUsers < 100 {
		numUsers = 100
	}
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		k := 3 + rng.Intn(6)
		toks := make([]uint32, 0, k)
		for j := 0; j < k; j++ {
			toks = append(toks, uint32(zipf.Uint64())+1) // +1: vocab id 0 is reserved
		}
		texts[i] = engine.SortTokens(toks)
		created[i] = origin.Add(time.Duration(rng.Float64()*float64(spanDays)*24) * time.Hour).UnixMilli()
		coords[i] = samplePoint(rng, usCities, USExtent, 0.12)
		statuses[i] = int64(math.Exp(rng.NormFloat64()*1.4 + 6))
		followers[i] = int64(math.Exp(rng.NormFloat64()*1.8 + 5))
		userIDs[i] = int64(rng.Intn(numUsers))
	}
	cols := []*engine.Column{
		{Name: "id", Type: engine.ColInt64, Ints: ids},
		{Name: "text", Type: engine.ColText, Texts: texts},
		{Name: "created_at", Type: engine.ColTime, Ints: created},
		{Name: "coordinates", Type: engine.ColPoint, Points: coords},
		{Name: "users_statuses_count", Type: engine.ColInt64, Ints: statuses},
		{Name: "users_followers_count", Type: engine.ColInt64, Ints: followers},
		{Name: "user_id", Type: engine.ColInt64, Ints: userIDs},
	}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	for col, kind := range map[string]engine.IndexKind{
		"text":                  engine.IndexInverted,
		"created_at":            engine.IndexBTree,
		"coordinates":           engine.IndexRTree,
		"users_statuses_count":  engine.IndexBTree,
		"users_followers_count": engine.IndexBTree,
	} {
		if _, err := t.BuildIndex(col, kind); err != nil {
			return nil, err
		}
	}
	if err := db.AddTable(t); err != nil {
		return nil, err
	}

	// Users dimension table.
	u := engine.NewTable("users", cfg.Scale)
	uIDs := make([]int64, numUsers)
	tweetCnt := make([]int64, numUsers)
	for i := 0; i < numUsers; i++ {
		uIDs[i] = int64(i)
		tweetCnt[i] = int64(math.Exp(rng.NormFloat64()*1.5 + 5.5))
	}
	if err := u.AddColumn(&engine.Column{Name: "id", Type: engine.ColInt64, Ints: uIDs}); err != nil {
		return nil, err
	}
	if err := u.AddColumn(&engine.Column{Name: "tweet_cnt", Type: engine.ColInt64, Ints: tweetCnt}); err != nil {
		return nil, err
	}
	if _, err := u.BuildIndex("id", engine.IndexBTree); err != nil {
		return nil, err
	}
	if _, err := u.BuildIndex("tweet_cnt", engine.IndexBTree); err != nil {
		return nil, err
	}
	if err := db.AddTable(u); err != nil {
		return nil, err
	}

	return &Dataset{
		Name:         "Twitter",
		DB:           db,
		Main:         "tweets",
		FilterCols:   []string{"text", "created_at", "coordinates", "users_statuses_count", "users_followers_count"},
		OutputCols:   []string{"id", "coordinates"},
		TimeOrigin:   origin,
		TimeSpanDays: spanDays,
		Extent:       USExtent,
		JoinTable:    "users",
		JoinLeftCol:  "user_id",
		JoinRightCol: "id",
		JoinFilter:   "tweet_cnt",
	}, nil
}

// Taxi generates the NYC Taxi dataset: pickup timestamps over 2010–2012,
// exponential trip distances and clustered pickup coordinates.
func Taxi(cfg Config) (*Dataset, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := engine.NewDB(engine.ProfilePostgres(), cfg.Seed)
	t := engine.NewTable("trips", cfg.Scale)

	origin := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	spanDays := 1095 // 2010–2012

	nycClusters := []cityCluster{
		{engine.Point{Lon: -73.985, Lat: 40.758}, 0.012, 0.45}, // Midtown
		{engine.Point{Lon: -74.007, Lat: 40.713}, 0.010, 0.20}, // Downtown
		{engine.Point{Lon: -73.95, Lat: 40.78}, 0.015, 0.15},   // Upper East/West
		{engine.Point{Lon: -73.87, Lat: 40.77}, 0.008, 0.10},   // LaGuardia
		{engine.Point{Lon: -73.78, Lat: 40.64}, 0.008, 0.10},   // JFK
	}

	n := cfg.Rows
	ids := make([]int64, n)
	pickup := make([]int64, n)
	dist := make([]float64, n)
	coords := make([]engine.Point, n)
	for i := 0; i < n; i++ {
		ids[i] = int64(i)
		pickup[i] = origin.Add(time.Duration(rng.Float64()*float64(spanDays)*24) * time.Hour).UnixMilli()
		// Trip distances are lognormal with rare long-haul outliers; the
		// outliers stretch the optimizer's equi-width histogram so estimates
		// for the dense 0.5–5 mile region are badly off — a classic
		// real-data estimation failure the paper's baseline suffers from.
		d := math.Exp(rng.NormFloat64()*0.9 + 0.35)
		if rng.Float64() < 0.001 {
			d = 100 + rng.Float64()*200
		}
		dist[i] = d
		coords[i] = samplePoint(rng, nycClusters, NYCExtent, 0.08)
	}
	cols := []*engine.Column{
		{Name: "id", Type: engine.ColInt64, Ints: ids},
		{Name: "pickup_datetime", Type: engine.ColTime, Ints: pickup},
		{Name: "trip_distance", Type: engine.ColFloat64, Floats: dist},
		{Name: "pickup_coordinates", Type: engine.ColPoint, Points: coords},
	}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	for col, kind := range map[string]engine.IndexKind{
		"pickup_datetime":    engine.IndexBTree,
		"trip_distance":      engine.IndexBTree,
		"pickup_coordinates": engine.IndexRTree,
	} {
		if _, err := t.BuildIndex(col, kind); err != nil {
			return nil, err
		}
	}
	if err := db.AddTable(t); err != nil {
		return nil, err
	}
	return &Dataset{
		Name:         "NYC Taxi",
		DB:           db,
		Main:         "trips",
		FilterCols:   []string{"pickup_datetime", "trip_distance", "pickup_coordinates"},
		OutputCols:   []string{"id", "pickup_coordinates"},
		TimeOrigin:   origin,
		TimeSpanDays: spanDays,
		Extent:       NYCExtent,
	}, nil
}

// TPCH generates a TPC-H-shaped lineitem fact table. receipt_date is
// correlated with ship_date (receipt = ship + a few days), so the
// optimizer's independence assumption produces large cardinality errors on
// conjunctions — the synthetic dataset's difficulty source.
func TPCH(cfg Config) (*Dataset, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := engine.NewDB(engine.ProfilePostgres(), cfg.Seed)
	t := engine.NewTable("lineitem", cfg.Scale)

	origin := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	spanDays := 2557 // 7 years, per TPC-H

	n := cfg.Rows
	price := make([]float64, n)
	ship := make([]int64, n)
	receipt := make([]int64, n)
	qty := make([]int64, n)
	discount := make([]float64, n)
	for i := 0; i < n; i++ {
		// extendedprice = quantity × unit price: heavy-tailed with rare
		// large orders, which stretch the equi-width price histogram and
		// wreck small-range estimates (mirrors the Taxi distance column).
		p := math.Exp(rng.NormFloat64()*0.8+8.2) + 900
		if rng.Float64() < 0.002 {
			p *= 10 + rng.Float64()*20
		}
		price[i] = p
		s := origin.Add(time.Duration(rng.Float64()*float64(spanDays)*24) * time.Hour)
		ship[i] = s.UnixMilli()
		receipt[i] = s.Add(time.Duration((1+rng.Intn(30))*24) * time.Hour).UnixMilli()
		qty[i] = int64(1 + rng.Intn(50))
		discount[i] = float64(rng.Intn(11)) / 100
	}
	cols := []*engine.Column{
		{Name: "extended_price", Type: engine.ColFloat64, Floats: price},
		{Name: "ship_date", Type: engine.ColTime, Ints: ship},
		{Name: "receipt_date", Type: engine.ColTime, Ints: receipt},
		{Name: "quantity", Type: engine.ColInt64, Ints: qty},
		{Name: "discount", Type: engine.ColFloat64, Floats: discount},
	}
	for _, c := range cols {
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	for _, col := range []string{"extended_price", "ship_date", "receipt_date"} {
		if _, err := t.BuildIndex(col, engine.IndexBTree); err != nil {
			return nil, err
		}
	}
	if err := db.AddTable(t); err != nil {
		return nil, err
	}
	return &Dataset{
		Name:         "TPC-H",
		DB:           db,
		Main:         "lineitem",
		FilterCols:   []string{"extended_price", "ship_date", "receipt_date"},
		OutputCols:   []string{"quantity", "discount"},
		TimeOrigin:   origin,
		TimeSpanDays: spanDays,
	}, nil
}
