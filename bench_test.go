// Package loglens benchmarks: one benchmark per paper table/figure plus
// the ablations DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Mapping: BenchmarkTimestamp* -> §VI-A timestamp identification;
// BenchmarkTable4* -> Table IV; BenchmarkFigure4Detection -> Figure 4/5
// detection path; BenchmarkTable5ModelSwap -> Table V update path;
// BenchmarkRebroadcast -> §V-A; BenchmarkFigure6* -> Figure 6;
// BenchmarkCaseADiscovery -> §VII-A; BenchmarkParserIndexAblation and
// BenchmarkGrokMatch/BenchmarkIsMatched -> design ablations.
package loglens

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/bus"
	"loglens/internal/datagen"
	"loglens/internal/datatype"
	"loglens/internal/experiments"
	"loglens/internal/grok"
	"loglens/internal/logmine"
	"loglens/internal/logstash"
	"loglens/internal/logtypes"
	"loglens/internal/modelmgr"
	"loglens/internal/parser"
	"loglens/internal/preprocess"
	"loglens/internal/seqdetect"
	"loglens/internal/store"
	"loglens/internal/stream"
	"loglens/internal/timestamp"
	"loglens/internal/volume"
)

// --- shared fixtures, built once ---

var fixtures struct {
	once sync.Once

	d1       datagen.Corpus
	d1Model  *modelmgr.Model
	d1Parsed []*logtypes.ParsedLog

	table4       map[string]datagen.Corpus
	table4Models map[string]*modelmgr.Model

	tsWorkload [][]string
}

func setup(b *testing.B) {
	b.Helper()
	fixtures.once.Do(func() {
		fixtures.d1 = datagen.D1(42)
		builder := modelmgr.NewBuilder(modelmgr.BuilderConfig{})
		m, _, err := builder.Build("d1", experiments.ToLogs("d1", fixtures.d1.Train))
		if err != nil {
			panic(err)
		}
		fixtures.d1Model = m
		p := m.NewParser(nil)
		for i, line := range fixtures.d1.Test {
			pl, err := p.Parse(logtypes.Log{Source: "d1", Seq: uint64(i + 1), Raw: line})
			if err == nil {
				fixtures.d1Parsed = append(fixtures.d1Parsed, pl)
			}
		}

		fixtures.table4 = map[string]datagen.Corpus{}
		fixtures.table4Models = map[string]*modelmgr.Model{}
		pb := modelmgr.NewBuilder(modelmgr.BuilderConfig{SkipSequence: true})
		for _, spec := range datagen.TableIVSpecs {
			c := datagen.TableIVCorpus(spec, 0.01, 42)
			fixtures.table4[spec.Name] = c
			sample := c.Train
			if max := spec.Patterns * 3; len(sample) > max {
				sample = sample[:max]
			}
			m, _, err := pb.Build(spec.Name, experiments.ToLogs(spec.Name, sample))
			if err != nil {
				panic(err)
			}
			fixtures.table4Models[spec.Name] = m
		}

		// Timestamp workload: mixed sources, formats deep in the
		// table.
		formats := timestamp.Defaults()
		chosen := []timestamp.Format{formats[27], formats[52], formats[70]}
		base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
		prefixes := []string{"", "WARN", "app7 pid 4421", "node x9 svc auth"}
		for i := 0; i < 4096; i++ {
			f := chosen[i%len(chosen)]
			line := prefixes[i%len(prefixes)] + " " + base.Add(time.Duration(i)*time.Second).Format(f.Layout) + " request served"
			fixtures.tsWorkload = append(fixtures.tsWorkload, strings.Fields(line))
		}
	})
}

// --- §VI-A: timestamp identification ---

func benchTimestamp(b *testing.B, opts ...timestamp.IdentifierOption) {
	setup(b)
	id := timestamp.New(opts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id.Identify(fixtures.tsWorkload[i%len(fixtures.tsWorkload)])
	}
}

func BenchmarkTimestampLinear(b *testing.B) {
	benchTimestamp(b, timestamp.WithoutCache(), timestamp.WithoutFilter())
}

func BenchmarkTimestampCacheOnly(b *testing.B) {
	benchTimestamp(b, timestamp.WithoutFilter())
}

func BenchmarkTimestampFilterOnly(b *testing.B) {
	benchTimestamp(b, timestamp.WithoutCache())
}

func BenchmarkTimestampFull(b *testing.B) {
	benchTimestamp(b)
}

// --- Table IV: LogLens vs Logstash parsing ---

func BenchmarkTable4LogLens(b *testing.B) {
	setup(b)
	for _, spec := range datagen.TableIVSpecs {
		b.Run(spec.Name, func(b *testing.B) {
			c := fixtures.table4[spec.Name]
			p := fixtures.table4Models[spec.Name].NewParser(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Parse(logtypes.Log{Source: spec.Name, Raw: c.Test[i%len(c.Test)]})
			}
		})
	}
}

func BenchmarkTable4Logstash(b *testing.B) {
	setup(b)
	for _, spec := range datagen.TableIVSpecs {
		b.Run(spec.Name, func(b *testing.B) {
			c := fixtures.table4[spec.Name]
			pipe, err := logstash.New(fixtures.table4Models[spec.Name].Patterns)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipe.Parse(logtypes.Log{Source: spec.Name, Raw: c.Test[i%len(c.Test)]})
			}
		})
	}
}

// --- Figure 4 / Figure 5: the stateful detection path ---

func BenchmarkFigure4Detection(b *testing.B) {
	setup(b)
	det := fixtures.d1Model.NewDetector(seqdetect.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Process(fixtures.d1Parsed[i%len(fixtures.d1Parsed)])
	}
}

func BenchmarkFigure5Heartbeat(b *testing.B) {
	setup(b)
	det := fixtures.d1Model.NewDetector(seqdetect.Config{})
	// Populate open states.
	for _, pl := range fixtures.d1Parsed[:2000] {
		det.Process(pl)
	}
	now := fixtures.d1Parsed[1999].EventTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A heartbeat that expires nothing: the per-tick cost of
		// enumerating open states.
		det.HeartbeatFor("d1", now)
	}
}

// --- Table V: model update path ---

func BenchmarkTable5ModelSwap(b *testing.B) {
	setup(b)
	det := fixtures.d1Model.NewDetector(seqdetect.Config{})
	for _, pl := range fixtures.d1Parsed[:2000] {
		det.Process(pl)
	}
	edited := fixtures.d1Model.Sequence.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			det.SetModel(edited)
		} else {
			det.SetModel(fixtures.d1Model.Sequence)
		}
	}
}

// --- §V-A: rebroadcast under load ---

func BenchmarkRebroadcast(b *testing.B) {
	e := stream.New(stream.Config{Partitions: 4}, func(ctx *stream.Context, rec stream.Record) []any {
		ctx.Broadcast("model")
		return nil
	})
	e.Broadcast("model", 0)
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	for !e.Running() {
		runtime.Gosched()
	}
	// While Run is active each Broadcast queues a rebroadcast for the
	// next micro-batch barrier.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Broadcast("model", i)
	}
	b.StopTimer()
	e.Close()
	<-done
}

// --- Figure 6: anomaly clustering ---

func BenchmarkFigure6Clusterize(b *testing.B) {
	base := time.Date(2016, 5, 9, 12, 0, 0, 0, time.UTC)
	var records []anomaly.Record
	for i := 0; i < 994; i++ {
		records = append(records, anomaly.Record{
			Type:      anomaly.MissingEnd,
			Timestamp: base.Add(time.Duration(i%4)*13*time.Minute + time.Duration(i)*90*time.Millisecond),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anomaly.Clusterize(records, 5*time.Minute)
	}
}

// --- §VII-A: pattern discovery throughput ---

func BenchmarkCaseADiscovery(b *testing.B) {
	c := datagen.CustomApp(3670, 42)
	pp := preprocess.New(nil, nil)
	results := make([]preprocess.Result, len(c.Train))
	for i, line := range c.Train {
		results[i] = pp.Process(line)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := logmine.New(logmine.Config{})
		for _, r := range results {
			cl.Add(r.Tokens, r.Types)
		}
		if cl.NumClusters() != datagen.CustomAppPatterns {
			b.Fatalf("clusters = %d", cl.NumClusters())
		}
	}
}

// --- ablation: signature index vs linear pattern scan ---

func BenchmarkParserIndexAblation(b *testing.B) {
	setup(b)
	spec := datagen.TableIVSpecs[1] // D4: the 3234-pattern stress case
	c := fixtures.table4[spec.Name]
	m := fixtures.table4Models[spec.Name]
	b.Run("indexed", func(b *testing.B) {
		p := m.NewParser(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Parse(logtypes.Log{Raw: c.Test[i%len(c.Test)]})
		}
	})
	b.Run("linear", func(b *testing.B) {
		p := m.NewParser(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ParseLinear(logtypes.Log{Raw: c.Test[i%len(c.Test)]})
		}
	})
}

// --- ablation: candidate-group ordering (ascending generality vs none) ---

func BenchmarkGroupSortAblation(b *testing.B) {
	setup(b)
	spec := datagen.TableIVSpecs[0]
	c := fixtures.table4[spec.Name]
	m := fixtures.table4Models[spec.Name]
	b.Run("sorted", func(b *testing.B) {
		p := m.NewParser(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Parse(logtypes.Log{Raw: c.Test[i%len(c.Test)]})
		}
	})
	b.Run("unsorted", func(b *testing.B) {
		p := parser.New(m.Patterns, nil, parser.WithoutGroupSort())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Parse(logtypes.Log{Raw: c.Test[i%len(c.Test)]})
		}
	})
}

// --- substrate micro-benchmarks ---

func BenchmarkBusPublishConsume(b *testing.B) {
	bs := bus.New()
	bs.CreateTopic("t", 4)
	consumer, _ := bs.NewConsumer("g", "t")
	payload := []byte("2016/02/23 09:00:31.000 10.0.0.1 job jb-1 completed rc 0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs.Publish("t", "key", payload, nil)
		if i%1024 == 1023 {
			consumer.TryPoll(0)
		}
	}
}

func BenchmarkStorePutSearch(b *testing.B) {
	st := store.New()
	ix := st.Index("anomalies")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Ids cycle through 10,000 slots, so the index holds at most
		// that many documents however long the benchmark runs.
		ix.Put(fmt.Sprintf("a%d", i%10000), store.Document{"type": "missing-end-state", "n": i})
		if i%1024 == 1023 {
			ix.CountWhere(store.Query{Term: map[string]any{"type": "missing-end-state"}})
		}
	}
}

// BenchmarkStoreSeal times one seal (Flush) of a fixed memtable of 17.5k
// archived log lines — about the 4 MiB of WAL that triggers a seal — into
// a persistent index already holding 10k or 200k sealed documents. Every
// round re-puts the same 17.5k ids, so the index size stays fixed. A seal
// that is linear in the memtable costs the same at both sizes.
func BenchmarkStoreSeal(b *testing.B) {
	const memtable = 17_500
	t0 := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	doc := func(i int) store.Document {
		return modelmgr.ArchiveDoc(logtypes.Log{
			Source:  "web01",
			Seq:     uint64(i),
			Raw:     fmt.Sprintf("2016/02/23 09:00:%02d.000 job %d scheduled on host web01 queue q%d", i%60, i, i%7),
			Arrival: t0.Add(time.Duration(i) * time.Millisecond),
		})
	}
	memIDs := make([]string, memtable)
	for i := range memIDs {
		memIDs[i] = fmt.Sprintf("mem-%d", i)
	}
	for _, held := range []int{10_000, 200_000} {
		b.Run(fmt.Sprintf("held=%dk", held/1000), func(b *testing.B) {
			st, err := store.Open(store.Options{Dir: b.TempDir(), FlushBytes: 1 << 40})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			ix := st.Index("logs")
			for i := 0; i < held; i += 1000 {
				docs := make([]store.Document, 1000)
				for j := range docs {
					docs[j] = doc(i + j)
				}
				ix.PutBatch(docs)
				if (i+1000)%25_000 == 0 {
					if err := st.Flush(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				for i, id := range memIDs {
					ix.Put(id, doc(held+i))
				}
				b.StartTimer()
				if err := st.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := ix.Count(); got != held+memtable {
				b.Fatalf("index holds %d documents, want %d", got, held+memtable)
			}
		})
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := stream.New(stream.Config{Partitions: 4}, func(ctx *stream.Context, rec stream.Record) []any {
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- e.Run(context.Background()) }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Send(stream.Record{Key: "k"})
	}
	b.StopTimer()
	e.Close()
	<-done
}

// --- micro: grok matching and Algorithm 1 ---

func BenchmarkGrokMatch(b *testing.B) {
	exact, _ := grok.ParsePattern(1, "%{DATETIME:t} %{IP:ip} job %{NOTSPACE:id} scheduled on host %{NOTSPACE:h}")
	wild, _ := grok.ParsePattern(2, "query %{ANYDATA:sql} rc %{NUMBER:rc}")
	exactTokens := strings.Fields("2016/02/23T09:00:31 10.0.0.1 job jb-1 scheduled on host h9")
	exactTokens[0] = "2016/02/23 09:00:31.000"
	wildTokens := strings.Fields("query SELECT a FROM b WHERE x = 1 rc 0")
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exact.Match(exactTokens)
		}
	})
	b.Run("wildcard-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wild.Match(wildTokens)
		}
	})
}

func BenchmarkIsMatched(b *testing.B) {
	logSig := []datatype.Type{datatype.DateTime, datatype.IP, datatype.Word, datatype.NotSpace, datatype.Number, datatype.Word, datatype.Number}
	patNoWild := []datatype.Type{datatype.DateTime, datatype.IP, datatype.Word, datatype.NotSpace, datatype.Number, datatype.Word, datatype.Number}
	patWild := []datatype.Type{datatype.DateTime, datatype.AnyData, datatype.Number}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parser.IsMatched(logSig, patNoWild)
		}
	})
	b.Run("wildcard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parser.IsMatched(logSig, patWild)
		}
	})
}

// --- preprocessing cost ---

func BenchmarkPreprocess(b *testing.B) {
	setup(b)
	pp := preprocess.New(nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pp.Process(fixtures.d1.Test[i%len(fixtures.d1.Test)])
	}
}

// --- the volume analytics application ---

func BenchmarkVolumeDetector(b *testing.B) {
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)
	var train []*logtypes.ParsedLog
	for w := 0; w < 50; w++ {
		for i := 0; i < 20; i++ {
			train = append(train, &logtypes.ParsedLog{
				PatternID:    1 + i%4,
				Timestamp:    base.Add(time.Duration(w)*10*time.Second + time.Duration(i)*100*time.Millisecond),
				HasTimestamp: true,
			})
		}
	}
	profile := volume.Learn(train, 10*time.Second)
	d := volume.New(profile, volume.Config{})
	day := base.Add(24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(&logtypes.ParsedLog{
			PatternID:    1 + i%4,
			Timestamp:    day.Add(time.Duration(i) * 100 * time.Millisecond),
			HasTimestamp: true,
		})
	}
}
