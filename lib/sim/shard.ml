let set_default_shards k =
  if k <> 1 then invalid_arg "Shard.set_default_shards: the engine is sequential only"

let set_default_profile p =
  if p then invalid_arg "Shard.set_default_profile: the engine has no profiler"
