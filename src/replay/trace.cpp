#include "replay/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace vl::replay {

namespace {

constexpr char kMagic[4] = {'V', 'L', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
std::uint32_t get_u32(const std::string& s, std::size_t& p) {
  if (p + 4 > s.size()) throw std::invalid_argument("trace: truncated u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(s[p++]))
         << (8 * i);
  return v;
}
std::uint64_t get_u64(const std::string& s, std::size_t& p) {
  if (p + 8 > s.size()) throw std::invalid_argument("trace: truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s[p++]))
         << (8 * i);
  return v;
}
void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}
std::string get_str(const std::string& s, std::size_t& p) {
  const std::uint32_t n = get_u32(s, p);
  if (p + n > s.size()) throw std::invalid_argument("trace: truncated string");
  std::string v = s.substr(p, n);
  p += n;
  return v;
}

/// Metadata value of a `# key=value` comment line, or "" when absent.
std::string meta_value(const std::string& line, const char* key) {
  const std::string want = std::string("# ") + key + "=";
  if (line.rfind(want, 0) != 0) return "";
  return line.substr(want.size());
}

}  // namespace

std::string Trace::csv() const {
  std::string out;
  out += "# scenario=" + scenario + "\n";
  out += "# backend=" + backend + "\n";
  out += "# seed=" + std::to_string(seed) + "\n";
  out += "# producers=" + std::to_string(producers) + "\n";
  out += "# tenants=" + std::to_string(tenants) + "\n";
  out += "# sharded=" + std::to_string(sharded ? 1 : 0) + "\n";
  out += "tick,tenant,producer,class,words,dst\n";
  char buf[96];
  for (const auto& r : records) {
    std::snprintf(buf, sizeof buf, "%llu,%u,%u,%u,%u,%llu\n",
                  static_cast<unsigned long long>(r.tick), r.tenant, r.pid,
                  static_cast<unsigned>(r.cls), r.words,
                  static_cast<unsigned long long>(r.dst));
    out += buf;
  }
  return out;
}

Trace Trace::parse_csv(const std::string& text) {
  Trace t;
  std::size_t pos = 0;
  bool header_seen = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::string v;
      if (!(v = meta_value(line, "scenario")).empty()) t.scenario = v;
      else if (!(v = meta_value(line, "backend")).empty()) t.backend = v;
      else if (!(v = meta_value(line, "seed")).empty())
        t.seed = std::strtoull(v.c_str(), nullptr, 10);
      else if (!(v = meta_value(line, "producers")).empty())
        t.producers = static_cast<std::uint32_t>(
            std::strtoul(v.c_str(), nullptr, 10));
      else if (!(v = meta_value(line, "tenants")).empty())
        t.tenants = static_cast<std::uint32_t>(
            std::strtoul(v.c_str(), nullptr, 10));
      else if (!(v = meta_value(line, "sharded")).empty())
        t.sharded = v == "1";
      continue;
    }
    if (!header_seen) {  // the column-name row
      if (line.rfind("tick,", 0) != 0)
        throw std::invalid_argument("trace csv: missing header row");
      header_seen = true;
      continue;
    }
    TraceRecord r;
    unsigned long long tick = 0, dst = 0;
    unsigned tenant = 0, pid = 0, cls = 0, words = 0;
    if (std::sscanf(line.c_str(), "%llu,%u,%u,%u,%u,%llu", &tick, &tenant,
                    &pid, &cls, &words, &dst) != 6)
      throw std::invalid_argument("trace csv: bad row: " + line);
    r.tick = tick;
    r.tenant = static_cast<std::uint16_t>(tenant);
    r.pid = static_cast<std::uint16_t>(pid);
    if (cls >= kQosClasses)
      throw std::invalid_argument("trace csv: bad class: " + line);
    r.cls = static_cast<QosClass>(cls);
    if (words < 1 || words > 7)
      throw std::invalid_argument("trace csv: bad words: " + line);
    r.words = static_cast<std::uint8_t>(words);
    r.dst = dst;
    t.records.push_back(r);
  }
  if (!header_seen)
    throw std::invalid_argument("trace csv: missing header row");
  return t;
}

std::string Trace::binary() const {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kVersion);
  put_str(out, scenario);
  put_str(out, backend);
  put_u64(out, seed);
  put_u32(out, producers);
  put_u32(out, tenants);
  out.push_back(sharded ? 1 : 0);
  put_u64(out, records.size());
  for (const auto& r : records) {
    put_u64(out, r.tick);
    out.push_back(static_cast<char>(r.tenant));
    out.push_back(static_cast<char>(r.tenant >> 8));
    out.push_back(static_cast<char>(r.pid));
    out.push_back(static_cast<char>(r.pid >> 8));
    out.push_back(static_cast<char>(r.cls));
    out.push_back(static_cast<char>(r.words));
    put_u64(out, r.dst);
  }
  return out;
}

Trace Trace::parse_binary(const std::string& bytes) {
  if (bytes.size() < 8 || std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw std::invalid_argument("trace: bad magic (not a VLTR file)");
  std::size_t p = sizeof kMagic;
  const std::uint32_t ver = get_u32(bytes, p);
  if (ver != kVersion)
    throw std::invalid_argument("trace: unsupported version " +
                                std::to_string(ver));
  Trace t;
  t.scenario = get_str(bytes, p);
  t.backend = get_str(bytes, p);
  t.seed = get_u64(bytes, p);
  t.producers = get_u32(bytes, p);
  t.tenants = get_u32(bytes, p);
  if (p >= bytes.size()) throw std::invalid_argument("trace: truncated");
  t.sharded = bytes[p++] != 0;
  const std::uint64_t n = get_u64(bytes, p);
  // A record is 22 bytes (tick 8, tenant/pid/class/words 6, dst 8): a count
  // the remaining bytes cannot hold is rejected before it sizes anything.
  if (n > (bytes.size() - p) / 22)
    throw std::invalid_argument("trace: record count " + std::to_string(n) +
                                " exceeds the file");
  t.records.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.tick = get_u64(bytes, p);
    if (p + 6 > bytes.size()) throw std::invalid_argument("trace: truncated");
    r.tenant = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(bytes[p]) |
        (static_cast<std::uint8_t>(bytes[p + 1]) << 8));
    r.pid = static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(bytes[p + 2]) |
        (static_cast<std::uint8_t>(bytes[p + 3]) << 8));
    const auto cls = static_cast<std::uint8_t>(bytes[p + 4]);
    if (cls >= kQosClasses)
      throw std::invalid_argument("trace: bad class byte");
    r.cls = static_cast<QosClass>(cls);
    r.words = static_cast<std::uint8_t>(bytes[p + 5]);
    if (r.words < 1 || r.words > 7)
      throw std::invalid_argument("trace: bad words byte");
    p += 6;
    r.dst = get_u64(bytes, p);
    t.records.push_back(r);
  }
  return t;
}

bool Trace::save(const std::string& path) const {
  const bool as_csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string body = as_csv ? csv() : binary();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (n != body.size()) std::fclose(f);
  return ok;
}

Trace Trace::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::invalid_argument("trace: cannot open " + path);
  std::string body;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  if (body.size() >= 4 && std::memcmp(body.data(), kMagic, 4) == 0)
    return parse_binary(body);
  return parse_csv(body);
}

void TraceRecorder::begin(const std::string& scenario,
                          const std::string& backend, std::uint64_t seed,
                          std::uint32_t producers, std::uint32_t tenants,
                          bool sharded) {
  meta_.scenario = scenario;
  meta_.backend = backend;
  meta_.seed = seed;
  meta_.producers = producers;
  meta_.tenants = tenants;
  meta_.sharded = sharded;
  streams_.assign(producers, {});
}

Trace TraceRecorder::finish() const {
  Trace t = meta_;
  std::size_t total = 0;
  for (const auto& s : streams_) total += s.size();
  t.records.reserve(total);
  // Merge by (tick, pid): streams are individually tick-ordered, so a
  // stable merge keyed on tick with pid as the tiebreak gives one total
  // order no host-thread interleaving can perturb.
  std::vector<std::size_t> cursor(streams_.size(), 0);
  for (std::size_t filled = 0; filled < total; ++filled) {
    std::size_t best = streams_.size();
    for (std::size_t p = 0; p < streams_.size(); ++p) {
      if (cursor[p] >= streams_[p].size()) continue;
      if (best == streams_.size() ||
          streams_[p][cursor[p]].tick < streams_[best][cursor[best]].tick)
        best = p;
    }
    t.records.push_back(streams_[best][cursor[best]++]);
  }
  return t;
}

TraceArrival::TraceArrival(const Trace& trace, std::uint16_t pid)
    : trace_(&trace) {
  for (std::uint32_t i = 0; i < trace.records.size(); ++i)
    if (trace.records[i].pid == pid) idx_.push_back(i);
}

}  // namespace vl::replay
