#ifndef GRALMATCH_STREAM_INCREMENTAL_PIPELINE_H_
#define GRALMATCH_STREAM_INCREMENTAL_PIPELINE_H_

/// \file incremental_pipeline.h
/// Include-compatibility header for code written against the former
/// stream module (e2ebench/workload.h includes this path). The value types
/// it used to define now live with the one incremental engine; include
/// shard/sharded_pipeline.h in new code.

#include "shard/pipeline_types.h"

#endif  // GRALMATCH_STREAM_INCREMENTAL_PIPELINE_H_
