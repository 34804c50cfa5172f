package relcheck

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// YAML model specs. The schema is deliberately small and the parser
// correspondingly strict — unknown keys are errors, because a typoed
// declaration in a verification spec must never silently verify nothing.
// Only the subset of YAML the schema needs is supported: top-level
// `key: value` scalars, one `rules:` sequence of inline mappings,
// comments and blank lines. (The container ships no YAML dependency; a
// checker this small is better served by a strict hand-rolled reader than
// by gating the whole tool on one.)
//
//	name: unsound-cross         # report label
//	relation: rules             # empty | tagging | enumeration | k-enumeration | rules
//	k: 4                        # encoding parameter (enumeration and tagging window / k-enumeration k)
//	transitive: false           # transitivity claim (default: true for built-ins, false for rules)
//	senders: 2                  # domain: number of senders
//	depth: 6                    # domain: messages per sender
//	tags: 3                     # domain: distinct item tags (tagging, and the tag rule)
//	max-interleavings: 2000     # confluence enumeration bound
//	rules:                      # relation: rules only — union of rule predicates
//	  - match: stride           # stride | tag | cross-sender | symmetric | self
//	    reach: 4                # reach of stride / cross-sender / symmetric
//	    from: 3                 # stride only: minimum delta (default 1)
type spec struct {
	fields map[string]string
	rules  []map[string]string
}

// ParseYAMLFile loads and parses a model spec from path.
func ParseYAMLFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseYAML(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m.Source = path
	return m, nil
}

// ParseYAML parses a model spec from its YAML text.
func ParseYAML(text string) (*Model, error) {
	sp, err := parseSpec(text)
	if err != nil {
		return nil, err
	}
	return sp.model()
}

func parseSpec(text string) (*spec, error) {
	sp := &spec{fields: make(map[string]string)}
	inRules := false
	for ln, raw := range strings.Split(text, "\n") {
		line := stripComment(raw)
		if strings.TrimSpace(line) == "" {
			continue
		}
		indented := line[0] == ' ' || line[0] == '\t'
		body := strings.TrimSpace(line)
		switch {
		case !indented && body == "rules:":
			if inRules {
				return nil, fmt.Errorf("line %d: duplicate rules section", ln+1)
			}
			inRules = true
		case !indented:
			key, val, err := splitKV(body, ln)
			if err != nil {
				return nil, err
			}
			if val == "" {
				return nil, fmt.Errorf("line %d: key %q has no value", ln+1, key)
			}
			if _, dup := sp.fields[key]; dup {
				return nil, fmt.Errorf("line %d: duplicate key %q", ln+1, key)
			}
			sp.fields[key] = val
			inRules = false
		case inRules && strings.HasPrefix(body, "- "):
			key, val, err := splitKV(strings.TrimSpace(body[2:]), ln)
			if err != nil {
				return nil, err
			}
			sp.rules = append(sp.rules, map[string]string{key: val})
		case inRules && len(sp.rules) > 0:
			key, val, err := splitKV(body, ln)
			if err != nil {
				return nil, err
			}
			r := sp.rules[len(sp.rules)-1]
			if _, dup := r[key]; dup {
				return nil, fmt.Errorf("line %d: duplicate rule key %q", ln+1, key)
			}
			r[key] = val
		default:
			return nil, fmt.Errorf("line %d: unexpected indented line %q", ln+1, body)
		}
	}
	return sp, nil
}

func stripComment(line string) string {
	if i := strings.Index(line, "#"); i >= 0 {
		return line[:i]
	}
	return line
}

func splitKV(body string, ln int) (key, val string, err error) {
	i := strings.Index(body, ":")
	if i < 0 {
		return "", "", fmt.Errorf("line %d: expected key: value, got %q", ln+1, body)
	}
	return strings.TrimSpace(body[:i]), strings.TrimSpace(body[i+1:]), nil
}

// model validates the spec and builds the Model.
func (sp *spec) model() (*Model, error) {
	known := map[string]bool{
		"name": true, "relation": true, "k": true,
		"transitive": true, "senders": true, "depth": true,
		"tags": true, "max-interleavings": true,
	}
	for key := range sp.fields {
		if !known[key] {
			return nil, fmt.Errorf("unknown key %q", key)
		}
	}
	relName := sp.fields["relation"]
	if relName == "" {
		return nil, fmt.Errorf("missing required key %q", "relation")
	}

	d := Domain{
		Senders: 0, Depth: 0, Tags: 0, K: 0,
	}
	var err error
	if d.Senders, err = sp.intField("senders", 0); err != nil {
		return nil, err
	}
	if d.Depth, err = sp.intField("depth", 0); err != nil {
		return nil, err
	}
	if d.Tags, err = sp.intField("tags", 0); err != nil {
		return nil, err
	}
	if d.K, err = sp.intField("k", 0); err != nil {
		return nil, err
	}

	var m *Model
	if relName == "rules" {
		if len(sp.rules) == 0 {
			return nil, fmt.Errorf("relation: rules requires a non-empty rules section")
		}
		d = d.withDefaults()
		rel := &ruleRelation{}
		for _, r := range sp.rules {
			ru, err := buildRule(r, d.Tags)
			if err != nil {
				return nil, err
			}
			rel.rules = append(rel.rules, ru)
		}
		m = &Model{Rel: rel, Streams: ruleStreams(d.Senders, d.Depth)}
	} else {
		if len(sp.rules) > 0 {
			return nil, fmt.Errorf("rules section is only valid with relation: rules")
		}
		if m, err = Builtin(relName, d); err != nil {
			return nil, err
		}
	}

	// The transitivity claim defaults to the relation's own, overridable by
	// the spec (that is how a would-be claim is proven unsound before it is
	// written into code).
	if v, ok := sp.fields["transitive"]; ok {
		if m.Transitive, err = parseBool(v, "transitive"); err != nil {
			return nil, err
		}
	}
	if m.MaxInterleavings, err = sp.intField("max-interleavings", 0); err != nil {
		return nil, err
	}
	m.Name = sp.fields["name"]
	if m.Name == "" {
		m.Name = relName
	}
	return m, nil
}

func (sp *spec) intField(key string, def int) (int, error) {
	v, ok := sp.fields[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("key %q: want a non-negative integer, got %q", key, v)
	}
	return n, nil
}

func parseBool(v, key string) (bool, error) {
	switch v {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("key %q: want true or false, got %q", key, v)
}

func buildRule(r map[string]string, tags int) (rule, error) {
	match := r["match"]
	reach := 4
	if v, ok := r["reach"]; ok {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("rule %q: reach must be a positive integer, got %q", match, v)
		}
		reach = n
	}
	from := 1
	if v, ok := r["from"]; ok {
		if match != "stride" {
			return nil, fmt.Errorf("rule %q: key %q is only valid for stride", match, "from")
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > reach {
			return nil, fmt.Errorf("rule %q: from must be a positive integer ≤ reach, got %q", match, v)
		}
		from = n
	}
	for key := range r {
		if key != "match" && key != "reach" && key != "from" {
			return nil, fmt.Errorf("rule %q: unknown key %q", match, key)
		}
	}
	switch match {
	case "stride":
		return strideRule{from: from, reach: reach}, nil
	case "tag":
		return tagRule{tags: tags}, nil
	case "cross-sender":
		return crossSenderRule{reach: reach}, nil
	case "symmetric":
		return symmetricRule{reach: reach}, nil
	case "self":
		return selfRule{}, nil
	case "":
		return nil, fmt.Errorf("rule missing match key")
	}
	return nil, fmt.Errorf("unknown rule match %q (want stride, tag, cross-sender, symmetric or self)", match)
}
