(* The repository benchmark: one workload, one seed, a wall-clock budget.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Repeats simulations of the workload (simulation i uses seed N*1000+i)
   while they fit in S seconds, gates every simulation on the correctness
   checks of [Sim.check], prints a readable report and, as the last line,
   one JSON object {correct, attempted, failed, metrics}. [--trace 0]
   reports the end-to-end metrics, [--trace 1] the per-layer metrics. Run
   from the root of the repository: scratch files and spans go to
   perfbench/out. Exits 1 when a correctness check failed, 2 on bad
   arguments. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = "perfbench/out" in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S wall-clock measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workload.find !workload with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      prerr_endline
        (usage ^ "\nworkloads: "
        ^ String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
      exit 2
  in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p out;
  let dir = Filename.concat out (Printf.sprintf "%s-%d" w.Workload.name (Unix.getpid ())) in
  Sim.rm_rf dir;
  Sys.mkdir dir 0o755;
  Printf.printf "workload: %s\nwhy: %s\nconfig: %s\nseed: %d\n%!" w.Workload.name
    w.Workload.why (Workload.describe w) !seed;
  let { Report.metrics; simulations; gated } =
    Fun.protect ~finally:(fun () -> Sim.rm_rf dir) @@ fun () ->
    if !trace = 0 then Report.end_to_end w ~dir ~seed:!seed ~seconds:!seconds
    else
      Report.per_layer w ~dir ~seed:!seed ~seconds:!seconds
        ~spans_out:
          (Filename.concat out (w.Workload.name ^ ".spans.jsonl"))
  in
  (* every ratio is printed next to the same run's throughput and counts *)
  let base =
    List.filter_map
      (fun x ->
        if List.mem x.Report.name [ "commit_tps"; "base.commit_tps"; "base.commits" ] then
          Some (Printf.sprintf "%s=%g" x.Report.name x.Report.value)
        else None)
      metrics
  in
  let base =
    Printf.sprintf "(%s over %d simulations)" (String.concat " " base) simulations
  in
  List.iter
    (fun x ->
      Printf.printf "%-36s %14.6g %-5s %s\n" x.Report.name x.Report.value x.Report.unit_ base)
    metrics;
  let attempted = Report.isum Report.attempts gated in
  let failed =
    Report.isum (fun o -> if o.Sim.failures = [] then 0 else Report.attempts o) gated
  in
  let correct = List.for_all (fun o -> o.Sim.failures = []) gated in
  print_endline (Report.result_json ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
