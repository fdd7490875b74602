package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one real stcd process with its own cache and state
// directories, reached over one keep-alive loopback connection.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
}

// cleanDaemonDirs removes every daemon directory under the work
// directory. Runs call it before and after their timed part, so no
// timed span pays for deleting an earlier daemon's state.
func cleanDaemonDirs(e env) error {
	dirs, err := filepath.Glob(filepath.Join(e.work, "stcd-*"))
	if err != nil {
		return err
	}
	for _, d := range dirs {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// startDaemon boots stcd with its default flags plus a fresh
// -cachedir and -statedir under dir, which must not exist yet.
func startDaemon(e env, dir string) (*daemon, error) {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "stcd.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(e.bin, "stcd"), "-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-cachedir", filepath.Join(dir, "cache"), "-statedir", filepath.Join(dir, "state"), "-log", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start stcd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("stcd exited before listening: %v (log %s)", err, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("stcd did not write its address")
		}
	}
	// One client, one connection: a closed loop that waits on each
	// reply before sending the next request.
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return d, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain takes longer than ten seconds.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// do sends one request and reads the whole answer.
func (d *daemon) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// get fetches a path and requires 200.
func (d *daemon) get(path string) ([]byte, http.Header, error) {
	code, h, b, err := d.do("GET", path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %s", path, code, firstLine(b))
	}
	return b, h, err
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return s
}

// jobDoc is the part of a stdcelltune-job/1 document the client reads.
type jobDoc struct {
	ID        string        `json:"id"`
	Digest    string        `json:"digest"`
	Status    string        `json:"status"`
	Outcome   string        `json:"cache_outcome"`
	Error     string        `json:"error"`
	Artifacts []artifactRef `json:"artifacts"`
}

// runJob submits a spec and waits on the job's event stream for its
// terminal document.
func (d *daemon) runJob(spec string) (*jobDoc, error) {
	code, _, b, err := d.do("POST", "/v2/jobs", []byte(spec))
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit %s: status %d: %s", spec, code, firstLine(b))
	}
	var doc jobDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	resp, err := d.client.Get(d.base + "/v2/jobs/" + doc.ID + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			var term jobDoc
			if err := json.Unmarshal([]byte(data), &term); err != nil {
				return nil, fmt.Errorf("job %s: terminal document: %w", doc.ID, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			if term.Status != "done" {
				return &term, fmt.Errorf("job %s ended %s: %s", doc.ID, term.Status, term.Error)
			}
			return &term, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("job %s: event stream ended without a done event", doc.ID)
}

// fetchArtifacts downloads every artifact of a library and checks the
// served X-Content-SHA256 header against the client's own hash.
func (d *daemon) fetchArtifacts(dig string, inv []artifactRef) (map[string][]byte, error) {
	blobs := make(map[string][]byte, len(inv))
	for _, a := range inv {
		b, h, err := d.get("/v2/libraries/" + dig + "/artifacts/" + a.Name)
		if err != nil {
			return nil, err
		}
		if got, want := sha256Hex(b), strings.TrimPrefix(h.Get("X-Content-SHA256"), "sha256:"); got != want {
			return nil, fmt.Errorf("artifact %s: header says %s, bytes hash to %s", a.Name, want, got)
		}
		blobs[a.Name] = b
	}
	return blobs, nil
}

// query posts a query document and returns the answer and the
// X-Query-Cache verdict.
func (d *daemon) query(dig, doc string) ([]byte, string, error) {
	code, h, b, err := d.do("POST", "/v2/libraries/"+dig+"/query", []byte(doc))
	if err != nil {
		return nil, "", err
	}
	if code != http.StatusOK {
		return nil, "", fmt.Errorf("query %s: status %d: %s", doc, code, firstLine(b))
	}
	return b, h.Get("X-Query-Cache"), nil
}

// counters reads named samples from the Prometheus exposition.
func (d *daemon) counters(names ...string) (map[string]float64, error) {
	b, _, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		for _, n := range names {
			if name == n {
				v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}

// scan is the client's own reading of a library's artifacts: cell
// areas and families from statlib.lib, instance counts per cell from
// netlist.v. The query answers are checked against it.
type scan struct {
	area      map[string]float64 // cell -> area, from statlib.lib
	instances map[string]int     // cell -> instance statements in netlist.v
	total     int                // instance statements in netlist.v
}

var (
	libCellRe  = regexp.MustCompile(`(?m)^\s*cell \(([A-Za-z0-9_]+)\) \{\s*\n\s*area : ([0-9.eE+-]+);`)
	instanceRe = regexp.MustCompile(`(?m)^  ([A-Za-z0-9_]+) \S+ +\(`)
)

func scanArtifacts(statlibText, netlistText []byte) (*scan, error) {
	s := &scan{area: make(map[string]float64), instances: make(map[string]int)}
	for _, m := range libCellRe.FindAllSubmatch(statlibText, -1) {
		a, err := strconv.ParseFloat(string(m[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("statlib.lib: cell %s area: %w", m[1], err)
		}
		s.area[string(m[1])] = a
	}
	for _, m := range instanceRe.FindAllSubmatch(netlistText, -1) {
		cell := string(m[1])
		if cell == "input" || cell == "output" || cell == "wire" || cell == "assign" {
			continue
		}
		if _, ok := s.area[cell]; !ok {
			return nil, fmt.Errorf("netlist.v instantiates %s, which statlib.lib lacks", cell)
		}
		s.instances[cell]++
		s.total++
	}
	if len(s.area) == 0 || s.total == 0 {
		return nil, fmt.Errorf("scan found %d cells and %d instances", len(s.area), s.total)
	}
	return s, nil
}

// family is the footprint prefix of a cell name: NR2B_6 -> NR2B.
func family(cell string) string {
	if i := strings.LastIndexByte(cell, '_'); i > 0 {
		return cell[:i]
	}
	return cell
}

func drive(cell string) int {
	n, _ := strconv.Atoi(cell[strings.LastIndexByte(cell, '_')+1:])
	return n
}

// tableQuery is one planned table query with the answer the client's
// scan predicts.
type tableQuery struct {
	doc  string
	want float64
}

// sessionPlan is the fixed input of the analyst session on the paper
// library: distinct table queries and distinct same-family substitute
// pairs, both derived from the library's artifacts and independent of
// the seed.
type sessionPlan struct {
	queries [][]tableQuery // per round
	pairs   [][2]string    // from, to
}

const (
	pairsPerRound = 2
	warmPerRound  = 4
)

func buildPlan(s *scan) *sessionPlan {
	var used []string
	for c := range s.instances {
		used = append(used, c)
	}
	sort.Strings(used)
	byFam := map[string][]string{}
	for c := range s.area {
		byFam[family(c)] = append(byFam[family(c)], c)
	}
	var fams []string
	for f, cells := range byFam {
		fams = append(fams, f)
		sort.Slice(cells, func(i, j int) bool { return drive(cells[i]) < drive(cells[j]) })
	}
	sort.Strings(fams)
	usedFam, famArea := map[string]int{}, map[string]float64{}
	for _, c := range used {
		usedFam[family(c)] += s.instances[c]
		famArea[family(c)] += float64(s.instances[c]) * s.area[c]
	}
	var instFams []string
	for f := range usedFam {
		instFams = append(instFams, f)
	}
	sort.Strings(instFams)

	const q = `{"schema":"stdcelltune-query/1",`
	where := func(from, col, val string) string {
		return q + `"from":"` + from + `","where":[{"col":"` + col + `","op":"eq","value":"` + val + `"}],`
	}
	count := `"aggregate":[{"op":"count"}]}`
	sumArea := `"aggregate":[{"op":"sum","col":"area_um2"}]}`
	maxArea := `"aggregate":[{"op":"max","col":"area_um2"}]}`
	avgArea := `"aggregate":[{"op":"avg","col":"area_um2"}]}`
	distinct := `"aggregate":[{"op":"count_distinct","col":"cell"}]}`
	// Three lists of distinct queries whose answers the scan predicts:
	// per used cell, per used family over the instances, and per
	// library family over the cells table.
	var byCell, byInstFam, byLibFam []tableQuery
	for _, c := range used {
		n := float64(s.instances[c])
		byCell = append(byCell,
			tableQuery{where("instances", "cell", c) + count, n},
			tableQuery{where("instances", "cell", c) + sumArea, n * s.area[c]},
			tableQuery{where("instances", "cell", c) + maxArea, s.area[c]},
			tableQuery{where("instances", "cell", c) + avgArea, s.area[c]})
	}
	for _, f := range instFams {
		cells := 0
		for _, c := range used {
			if family(c) == f {
				cells++
			}
		}
		byInstFam = append(byInstFam,
			tableQuery{where("instances", "family", f) + count, float64(usedFam[f])},
			tableQuery{where("instances", "family", f) + sumArea, famArea[f]},
			tableQuery{where("instances", "family", f) + distinct, float64(cells)},
			tableQuery{where("instances", "family", f) + avgArea, famArea[f] / float64(usedFam[f])})
	}
	for _, f := range fams {
		sum, max := 0.0, 0.0
		for _, c := range byFam[f] {
			sum += s.area[c]
			max = math.Max(max, s.area[c])
		}
		byLibFam = append(byLibFam,
			tableQuery{where("cells", "family", f) + count, float64(len(byFam[f]))},
			tableQuery{where("cells", "family", f) + sumArea, sum},
			tableQuery{where("cells", "family", f) + maxArea, max})
	}
	p := &sessionPlan{}
	for r := 0; 4*r+3 < len(byCell) && r < len(byInstFam) && r < len(byLibFam); r++ {
		round := append([]tableQuery(nil), byCell[4*r:4*r+4]...)
		p.queries = append(p.queries, append(round, byInstFam[r], byLibFam[r]))
	}
	// Substitute every used cell for its siblings one and two drive
	// steps up and one step down, in name order: pairs that touch
	// thousands of instances (past the STA engine's full-analysis
	// fallback) and pairs that touch a handful (incremental) interleave.
	for _, c := range used {
		sibs := byFam[family(c)]
		for i, sc := range sibs {
			if sc != c {
				continue
			}
			for _, j := range []int{i + 1, i - 1, i + 2} {
				if j >= 0 && j < len(sibs) {
					p.pairs = append(p.pairs, [2]string{c, sibs[j]})
				}
			}
		}
	}
	return p
}

// rounds is how many whole session rounds the plan supports without
// repeating a query or a pair (a repeat would hit the result cache).
func (p *sessionPlan) rounds() int {
	return min(len(p.queries), len(p.pairs)/pairsPerRound)
}

// answer reads the single aggregate value of a query answer.
func answer(b []byte) (float64, error) {
	var doc struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, err
	}
	if len(doc.Rows) != 1 || len(doc.Rows[0]) != 1 {
		return 0, fmt.Errorf("want one aggregate value, got rows %v", doc.Rows)
	}
	v, ok := doc.Rows[0][0].(float64)
	if !ok {
		return 0, fmt.Errorf("aggregate %v is not a number", doc.Rows[0][0])
	}
	return v, nil
}

// groupedCount sums the counts of a grouped instance query.
func groupedCount(b []byte) (float64, error) {
	var doc struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, r := range doc.Rows {
		if len(r) != 2 {
			return 0, fmt.Errorf("grouped row %v", r)
		}
		v, ok := r[1].(float64)
		if !ok {
			return 0, fmt.Errorf("grouped count %v is not a number", r[1])
		}
		sum += v
	}
	return sum, nil
}

const (
	paperSpec  = `{}`
	firstQuery = `{"schema":"stdcelltune-query/1","from":"instances","group_by":["cell"],"aggregate":[{"op":"count"}],"limit":1000}`
	widenQuery = `{"schema":"stdcelltune-query/1","what_if":{"op":"widen","factor":1.2}}`
)

// smallSpec is the round's cold job: the mcu-small design at the
// paper's 50 instances, seeded per round from the workload seed.
func smallSpec(seed int64, round int) string {
	return fmt.Sprintf(`{"design":"mcu-small","seed":%d}`, 1000*seed+int64(round)+1)
}

func substituteQuery(from, to string) string {
	return `{"schema":"stdcelltune-query/1","what_if":{"op":"substitute","from":"` + from + `","to":"` + to + `"}}`
}

// session holds one analyst session's classes and checks.
type session struct {
	d                             *daemon
	plan                          *sessionPlan
	paper                         string // paper library digest
	paperScan                     *scan
	cold, warm, firstQ, widen     *class
	queryMiss, queryHit, subst    *class
	c                             *checks
	plannedHits, plannedMisses    int
	whatIfFull, whatIfIncremental int
	spec                          func(r int) string  // round r's cold-job spec
	span                          func(string) func() // traced run only
	paperBlobs                    map[string][]byte   // paper library artifacts
	firstSubstitute               *whatIf
	lastCold                      string // id of the last cold job
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs fn inside a span when the run is traced.
func (s *session) timed(name string, fn func() error) (time.Duration, error) {
	end := func() {}
	if s.span != nil {
		end = s.span(name)
	}
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	end()
	return dt, err
}

func (s *session) fail(cl *class, err error) {
	cl.fail()
	fmt.Printf("service: %s failed: %v\n", cl.name, err)
}

// round runs one whole session round: a cold job, its warm replays,
// the first query and a widen on its fresh library, then distinct
// table queries (each a miss then a hit) and substitutes on the paper
// library.
func (s *session) round(r int) {
	spec := s.spec(r)
	var cold *jobDoc
	dt, err := s.timed("http.cold_job", func() (err error) { cold, err = s.d.runJob(spec); return err })
	if err != nil {
		s.fail(s.cold, err)
		return
	}
	s.cold.ok(ms(dt))
	s.lastCold = cold.ID
	s.plannedMisses++
	if cold.Outcome != "miss" {
		s.c.add(fmt.Errorf("cold job %s: cache outcome %q, want miss", cold.ID, cold.Outcome))
	}
	for i := 0; i < warmPerRound; i++ {
		var warm *jobDoc
		dt, err := s.timed("http.warm_job", func() (err error) { warm, err = s.d.runJob(spec); return err })
		if err != nil {
			s.fail(s.warm, err)
			continue
		}
		s.warm.ok(ms(dt))
		s.plannedHits++
		if warm.Outcome != "hit" {
			s.c.add(fmt.Errorf("warm job %s: cache outcome %q, want hit", warm.ID, warm.Outcome))
		}
		s.c.add(checkReplay(cold.Artifacts, warm.Artifacts))
	}
	blobs, err := s.d.fetchArtifacts(cold.Digest, cold.Artifacts)
	if err != nil {
		s.c.add(err)
		return
	}
	s.c.add(checkArtifacts(cold.Artifacts, blobs))
	small, err := scanArtifacts(blobs["statlib.lib"], blobs["netlist.v"])
	if err != nil {
		s.c.add(err)
		return
	}

	var body []byte
	var verdict string
	dt, err = s.timed("http.first_query", func() (err error) { body, verdict, err = s.d.query(cold.Digest, firstQuery); return err })
	if err != nil {
		s.fail(s.firstQ, err)
	} else {
		s.firstQ.ok(ms(dt))
		s.plannedMisses++
		s.c.add(checkVerdict("first query", verdict, "miss"))
		n, err := groupedCount(body)
		s.c.add(err)
		s.c.add(checkCount("instances grouped by cell", n, float64(small.total)))
	}

	dt, err = s.timed("http.widen", func() (err error) { body, verdict, err = s.d.query(cold.Digest, widenQuery); return err })
	if err != nil {
		s.fail(s.widen, err)
	} else {
		s.widen.ok(ms(dt))
		s.plannedMisses++
		s.c.add(checkVerdict("widen", verdict, "miss"))
		var w whatIf
		if err := json.Unmarshal(body, &w); err != nil {
			s.c.add(fmt.Errorf("widen answer: %w", err))
		} else {
			s.c.add(checkWiden(&w))
			s.whatIfFull += w.Full
			s.whatIfIncremental += w.Incremental
		}
	}

	for _, q := range s.plan.queries[r] {
		for _, want := range []string{"miss", "hit"} {
			cl := s.queryMiss
			if want == "hit" {
				cl = s.queryHit
			}
			dt, err := s.timed("http.query_"+want, func() (err error) { body, verdict, err = s.d.query(s.paper, q.doc); return err })
			if err != nil {
				s.fail(cl, err)
				continue
			}
			cl.ok(ms(dt))
			if want == "hit" {
				s.plannedHits++
			} else {
				s.plannedMisses++
			}
			s.c.add(checkVerdict(q.doc, verdict, want))
			v, err := answer(body)
			s.c.add(err)
			s.c.add(checkCount(q.doc, v, q.want))
		}
	}

	for _, pair := range s.plan.pairs[r*pairsPerRound : (r+1)*pairsPerRound] {
		dt, err := s.timed("http.substitute", func() (err error) {
			body, verdict, err = s.d.query(s.paper, substituteQuery(pair[0], pair[1]))
			return err
		})
		if err != nil {
			s.fail(s.subst, err)
			continue
		}
		s.subst.ok(ms(dt))
		s.plannedMisses++
		s.c.add(checkVerdict("substitute", verdict, "miss"))
		var w whatIf
		if err := json.Unmarshal(body, &w); err != nil {
			s.c.add(fmt.Errorf("substitute answer: %w", err))
			continue
		}
		s.c.add(checkSubstituteArea(&w, s.paperScan.area[pair[0]], s.paperScan.area[pair[1]]))
		s.whatIfFull += w.Full
		s.whatIfIncremental += w.Incremental
		if s.firstSubstitute == nil {
			s.firstSubstitute = &w
		}
	}
}

// bootPaper boots a daemon and runs the paper-scale library job on it:
// the service workload's set-up.
func bootPaper(e env, dir string) (*daemon, *jobDoc, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(e, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	doc, err := d.runJob(paperSpec)
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, doc, time.Since(t0), nil
}

// newSession fetches the paper library's artifacts, checks them and
// plans the session on them.
func newSession(d *daemon, paper *jobDoc, c *checks) (*session, error) {
	blobs, err := d.fetchArtifacts(paper.Digest, paper.Artifacts)
	if err != nil {
		return nil, err
	}
	c.add(checkArtifacts(paper.Artifacts, blobs))
	sc, err := scanArtifacts(blobs["statlib.lib"], blobs["netlist.v"])
	if err != nil {
		return nil, err
	}
	if len(sc.area) != 304 {
		c.add(fmt.Errorf("paper library: statlib.lib holds %d cells, want 304", len(sc.area)))
	}
	s := &session{
		d: d, plan: buildPlan(sc), paper: paper.Digest, paperScan: sc, paperBlobs: blobs, c: c,
		cold: &class{name: "cold_job"}, warm: &class{name: "warm_job"},
		firstQ: &class{name: "first_query"}, widen: &class{name: "widen"},
		queryMiss: &class{name: "query_miss"}, queryHit: &class{name: "query_hit"},
		subst: &class{name: "substitute"},
	}
	// The cells table of the paper library must hold every cell.
	body, verdict, err := d.query(paper.Digest, `{"schema":"stdcelltune-query/1","from":"cells","aggregate":[{"op":"count"}]}`)
	if err != nil {
		return nil, err
	}
	s.plannedMisses++
	c.add(checkVerdict("cells count", verdict, "miss"))
	v, err := answer(body)
	c.add(err)
	c.add(checkCount("cells count", v, float64(len(sc.area))))
	return s, nil
}

func (s *session) classes() []*class {
	return []*class{s.cold, s.warm, s.firstQ, s.widen, s.queryMiss, s.queryHit, s.subst}
}

// finish runs the end-of-session checks: the from-scratch substitute
// comparison and the cache counters against the plan.
func (s *session) finish(before map[string]float64) {
	if s.firstSubstitute != nil {
		s.c.add(scratchSubstitute(s.paperBlobs, s.firstSubstitute))
	} else {
		s.c.add(errors.New("service: no substitute answered"))
	}
	after, err := s.d.counters("service_cache_hits", "service_cache_misses")
	if err != nil {
		s.c.add(err)
		return
	}
	hits := int(after["service_cache_hits"] - before["service_cache_hits"])
	misses := int(after["service_cache_misses"] - before["service_cache_misses"])
	if hits != s.plannedHits || misses != s.plannedMisses {
		s.c.add(fmt.Errorf("cache counters moved hits +%d misses +%d, plan says +%d and +%d",
			hits, misses, s.plannedHits, s.plannedMisses))
	}
}

// setupBoots is how many times the service workload sets up; set-up
// is the median.
const setupBoots = 5

// rssRoundsService is the round after which the service workload reads
// the daemon's peak RSS, and the least number of rounds a run makes:
// the daemon's cache grows with every round, so a later reading would
// grow with how many rounds a fast machine fits in.
const rssRoundsService = 10

// runService is the service workload: set up (boot + paper library
// job) several times, then run whole session rounds on the last daemon
// until the run's time is up.
func runService(ctx context.Context, e env) (*result, error) {
	if err := cleanDaemonDirs(e); err != nil {
		return nil, err
	}
	setup := &class{name: "setup"}
	var d *daemon
	var paper *jobDoc
	for i := 0; i < setupBoots; i++ {
		if d != nil {
			d.stop()
		}
		var dt time.Duration
		var err error
		d, paper, dt, err = bootPaper(e, filepath.Join(e.work, fmt.Sprintf("stcd-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup.ok(dt.Seconds())
	}
	defer func() {
		d.stop()
		_ = cleanDaemonDirs(e) // best effort: the next run cleans again before timing
	}()
	var c checks
	before, err := d.counters("service_cache_hits", "service_cache_misses")
	if err != nil {
		return nil, err
	}
	s, err := newSession(d, paper, &c)
	if err != nil {
		return nil, err
	}
	s.spec = func(r int) string { return smallSpec(e.seed, r) }
	fmt.Printf("service: paper library %s, %d planned rounds\n", paper.Digest, s.plan.rounds())
	start := time.Now()
	r := 0
	rss := 0.0
	for ; r < s.plan.rounds() && (r < rssRoundsService || time.Since(start) < e.seconds); r++ {
		s.round(r)
		if r == rssRoundsService-1 {
			if rss, err = vmHWM(d.pid()); err != nil {
				return nil, err
			}
		}
	}
	fmt.Printf("service: %d rounds in %.1fs\n", r, time.Since(start).Seconds())
	s.finish(before)
	setup.report("s")
	res := &result{Correct: c.ok(), Metrics: map[string]metric{
		"setup_s":     {setup.median(), "s"},
		"peak_rss_mb": {rss, "MB"},
		"cold_ms":     {s.cold.median(), "ms"},
	}}
	res.Attempted, res.Failed = setup.attempted, setup.failed
	for _, cl := range s.classes() {
		cl.report("ms")
		res.Attempted += cl.attempted
		res.Failed += cl.failed
	}
	return res, nil
}
