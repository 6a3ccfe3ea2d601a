let () =
  let config = Sf_core.Protocol.make_config ~view_size:16 ~lower_threshold:6 in
  let topology = Sf_core.Topology.regular (Sf_prng.Rng.create 1) ~n:48 ~out_degree:8 in
  let c = Sf_net.Driver.create ~base_port:19000 ~n:48 ~config ~loss_rate:0.05 ~seed:2 ~topology () in
  Sf_net.Driver.run c ~duration:2.0;
  let s = Sf_net.Driver.statistics c in
  let outs = Sf_net.Driver.outdegree_summary c in
  Fmt.pr "actions=%d sent=%d dropped=%d received=%d decode_err=%d send_err=%d@."
    s.Sf_net.Driver.actions s.Sf_net.Driver.datagrams_sent s.Sf_net.Driver.datagrams_dropped
    s.Sf_net.Driver.datagrams_received s.Sf_net.Driver.decode_errors s.Sf_net.Driver.send_errors;
  Fmt.pr "outdeg=%.2f±%.2f alpha=%.3f connected=%b@."
    (Sf_stats.Summary.mean outs) (Sf_stats.Summary.std outs)
    (Sf_net.Driver.independence_census c).Sf_core.Census.alpha
    (Sf_net.Driver.is_weakly_connected c);
  Sf_net.Driver.shutdown c
