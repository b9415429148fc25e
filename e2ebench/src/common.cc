#include "common.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace e2ebench {

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

std::vector<int> ListThreads() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') tids.push_back(std::atoi(e->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

uint64_t ThreadCpuNsOf(int tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/schedstat";
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  unsigned long long ns = 0;
  const int n = std::fscanf(f, "%llu", &ns);
  std::fclose(f);
  return n == 1 ? ns : 0;
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

uint64_t RssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void SleepUntilNs(uint64_t deadline_ns) {
  for (uint64_t now = NowNs(); now < deadline_ns; now = NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

uint64_t SamplesBeyond(const std::vector<double>& v, double q) {
  const double cut = Percentile(v, q);
  return static_cast<uint64_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

std::vector<Span>* SpanLog::Buffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<std::vector<Span>>());
  buffers_.back()->reserve(1 << 16);
  return buffers_.back().get();
}

std::vector<Span> SpanLog::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  return all;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,parent,id,start_ns,end_ns,cpu_ns,events\n");
  for (const Span& s : All()) {
    std::fprintf(f, "%s,%s,%llu,%llu,%llu,%llu,%llu\n", s.name, s.parent,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.cpu_ns),
                 static_cast<unsigned long long>(s.events));
  }
  return std::fclose(f) == 0;
}

SpanTotals SumSpans(const std::vector<Span>& spans, const std::string& name) {
  SpanTotals t;
  for (const Span& s : spans) {
    if (name != s.name) continue;
    t.cpu_ns += s.cpu_ns;
    t.events += s.events;
  }
  return t;
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name, double unit_ns) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / unit_ns);
    }
  }
  return out;
}

}  // namespace e2ebench
