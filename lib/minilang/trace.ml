(** Execution traces.

    The paper instruments Python byte-code to dump, at every branch and
    return instruction, the stack top plus the file name and line number
    (Appendix D.2).  Our interpreter emits the same information natively:
    each event carries a {!site} — the (file, line) of the instruction —
    and the relevant value, pre-abstracted the way Section 5.2 featurizes
    it (booleans as true/false; numbers and collection lengths as
    zero/non-zero; composite objects as None/not-None). *)

type site = { s_file : string; s_line : int }

let site_of_pos (p : Ast.pos) = { s_file = p.Ast.file; s_line = p.Ast.line }

let site_to_string s = Printf.sprintf "%s:%d" s.s_file s.s_line

(** Abstraction of a return value, per the featurization of Section 5.2. *)
type ret_abstract =
  | Rbool of bool
  | Rzero        (** number or collection length equal to 0 *)
  | Rnonzero
  | Rnone        (** composite object that is None *)
  | Rnotnone
  | Rvoid        (** function fell off the end without a return value *)

let ret_abstract_to_string = function
  | Rbool true -> "True"
  | Rbool false -> "False"
  | Rzero -> "0"
  | Rnonzero -> "!=0"
  | Rnone -> "None"
  | Rnotnone -> "!=None"
  | Rvoid -> "void"

let abstract_value (v : Value.t) : ret_abstract =
  match v with
  | Value.Vbool b -> Rbool b
  | Value.Vint i -> if i = 0 then Rzero else Rnonzero
  | Value.Vfloat f -> if f = 0.0 then Rzero else Rnonzero
  | Value.Vstr s -> if String.length s = 0 then Rzero else Rnonzero
  | Value.Vlist l -> if !l = [] then Rzero else Rnonzero
  | Value.Vdict d -> if !d = [] then Rzero else Rnonzero
  | Value.Vtuple t -> if t = [] then Rzero else Rnonzero
  | Value.Vnone -> Rnone
  | Value.Vobj _ | Value.Vfun _ | Value.Vbound _ | Value.Vclass _
  | Value.Vbuiltin _ -> Rnotnone

type event =
  | Branch of site * bool
      (** condition of an if/elif/while evaluated at [site], taken or not *)
  | Return of site * ret_abstract
  | Exception of string
      (** uncaught exception kind escaping the invoked entry point *)
  | Assign of site * string * string
      (** variable or attribute name, display string of assigned value;
          harvested for semantic transformations (Section 7.1) *)

type t = event list  (** in execution order *)

(** Mutable collector threaded through the interpreter. *)
type collector = {
  mutable events : event list;  (** reversed *)
  mutable n_events : int;
  mutable n_branches : int;  (** all Branch emissions, even past the cap *)
  mutable n_returns : int;  (** all Return emissions, even past the cap *)
  max_events : int;
  record_assigns : bool;
}

let create_collector ?(max_events = 200_000) ?(record_assigns = false) () =
  { events = []; n_events = 0; n_branches = 0; n_returns = 0; max_events;
    record_assigns }

let emit c ev =
  (match ev with
   | Branch _ -> c.n_branches <- c.n_branches + 1
   | Return _ -> c.n_returns <- c.n_returns + 1
   | Exception _ | Assign _ -> ());
  if c.n_events < c.max_events then begin
    c.events <- ev :: c.events;
    c.n_events <- c.n_events + 1
  end

let finish c : t = List.rev c.events
