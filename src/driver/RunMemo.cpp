//===- driver/RunMemo.cpp - Process-wide memo of timed runs ----------------===//
//
// Part of the StrideProf project (see RunMemo.h for the project
// reference).
//
//===----------------------------------------------------------------------===//

#include "driver/RunMemo.h"

#include "interp/ProgramCache.h"

#include <algorithm>
#include <chrono>
#include <future>

using namespace sprof;

struct RunMemo::Entry {
  RunKey Key;
  std::shared_future<TimedRun> Result;
};

RunMemo &RunMemo::global() {
  static RunMemo Memo;
  return Memo;
}

TimedRun RunMemo::run(const RunKey &K,
                      const std::function<TimedRun()> &Execute,
                      bool &Executed) {
  std::promise<TimedRun> Promise;
  std::shared_ptr<Entry> Mine;
  std::shared_future<TimedRun> Found;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    const uint64_t G = ProgramCache::global().generation();
    if (G != Generation) {
      Entries.clear();
      Generation = G;
    }
    for (const std::shared_ptr<Entry> &E : Entries)
      if (E->Key == K) {
        Found = E->Result;
        break;
      }
    if (!Found.valid()) {
      if (Entries.size() >= MaxEntries) {
        auto Done = std::find_if(Entries.begin(), Entries.end(),
                                 [](const std::shared_ptr<Entry> &E) {
                                   return E->Result.wait_for(
                                              std::chrono::seconds(0)) ==
                                          std::future_status::ready;
                                 });
        if (Done != Entries.end())
          Entries.erase(Done);
      }
      Mine = std::make_shared<Entry>(Entry{K, Promise.get_future().share()});
      Entries.push_back(Mine);
    }
  }
  if (Found.valid()) {
    // Done or in flight: wait outside the lock. The shared state outlives
    // the entry, and get() rethrows the executing requester's exception.
    Executed = false;
    return Found.get();
  }

  Executed = true;
  try {
    TimedRun R = Execute();
    Promise.set_value(R);
    return R;
  } catch (...) {
    Promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> Lock(Mu);
    // Drop exactly this entry: a cold-start reset may already have, and a
    // newer request for the key may have added its own.
    Entries.erase(std::remove(Entries.begin(), Entries.end(), Mine),
                  Entries.end());
    throw;
  }
}

size_t RunMemo::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}
