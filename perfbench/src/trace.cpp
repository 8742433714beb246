#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : t0_(clock::now()) {
  spans_.reserve(1 << 16);
  values_.reserve(1 << 10);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), index_(-1), saved_parent_(-1) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = tracer_->current_;
  s.op = tracer_->op_;
  s.group = tracer_->group_;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  saved_parent_ = tracer_->current_;
  tracer_->current_ = index_;
  tracer_->spans_.push_back(s);
  tracer_->spans_.back().start = tracer_->now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end = tracer_->now();
  tracer_->current_ = saved_parent_;
}

void Tracer::record(const char* name, double seconds) {
  values_.push_back({name, current_, op_, group_, seconds});
}

std::vector<std::vector<double>> Tracer::durations(const std::string& name,
                                                   std::size_t groups) const {
  std::vector<std::vector<double>> out(groups);
  for (const Span& s : spans_)
    if (name == s.name && static_cast<std::size_t>(s.group) < groups)
      out[static_cast<std::size_t>(s.group)].push_back(s.end - s.start);
  return out;
}

std::vector<std::vector<double>> Tracer::values(const std::string& name,
                                                std::size_t groups) const {
  std::vector<std::vector<double>> out(groups);
  for (const Value& v : values_)
    if (name == v.name && static_cast<std::size_t>(v.group) < groups)
      out[static_cast<std::size_t>(v.group)].push_back(v.seconds);
  return out;
}

namespace {
std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  if (dot == std::string::npos) return name;
  if (name.compare(0, dot, "core") != 0) return name.substr(0, dot);
  const auto dot2 = name.find('.', dot + 1);
  return name.substr(0, dot2);
}
}  // namespace

double Tracer::op_seconds(std::int64_t op) const {
  double total = 0.0;
  // Spans of one op are contiguous at the back of the log; walk backwards.
  for (auto it = spans_.rbegin(); it != spans_.rend() && it->op == op; ++it)
    if (it->parent == -1) total += it->end - it->start;
  return total;
}

std::vector<std::pair<std::string, double>> Tracer::layer_self_seconds()
    const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  std::map<std::string, double> by_layer;
  for (const Value& v : values_) {
    if (v.parent >= 0) self[static_cast<std::size_t>(v.parent)] -= v.seconds;
    if (v.op >= 0) by_layer[layer_of(v.name)] += v.seconds;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].op >= 0) by_layer[layer_of(spans_[i].name)] += self[i];
  std::vector<std::pair<std::string, double>> out(by_layer.begin(),
                                                  by_layer.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("trace: cannot write " + path);
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,"
                 "\"op\":%lld,\"group\":%d}\n",
                 s.name, s.start, s.end, s.parent,
                 static_cast<long long>(s.op), s.group);
  for (const Value& v : values_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"seconds\":%.9f,\"parent\":%d,"
                 "\"op\":%lld,\"group\":%d}\n",
                 v.name, v.seconds, v.parent, static_cast<long long>(v.op),
                 v.group);
  const bool ok = std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("trace: cannot write " + path);
}

}  // namespace perfbench
