#include "service/build_info.hpp"

#ifndef RTLOCK_VERSION
#define RTLOCK_VERSION "0.0.0-dev"
#endif

namespace rtlock::service {

namespace {

// Bumped by hand when the parser/verifier pipeline changes what a session
// contains for identical source text.
constexpr int kEnginePipelineRevision = 1;

}  // namespace

const BuildInfo& buildInfo() noexcept {
  static const BuildInfo info{RTLOCK_VERSION, {"interpreter", "compiled", "sliced"}};
  return info;
}

const std::string& generatorTag() noexcept {
  static const std::string tag = [] {
    std::string backends;
    for (const std::string& backend : buildInfo().simBackends) {
      if (!backends.empty()) backends += ',';
      backends += backend;
    }
    return "rtlock " + buildInfo().version + " (sim: " + backends + ")";
  }();
  return tag;
}

const std::string& engineVersionTag() noexcept {
  static const std::string tag =
      "rtlock-engine/" + std::to_string(kEnginePipelineRevision) + "/" + buildInfo().version;
  return tag;
}

}  // namespace rtlock::service
