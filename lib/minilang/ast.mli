(** Abstract syntax tree for MiniScript, the Python-like language in
    which the simulated open-source corpus is written.

    Every node that can generate a trace event (conditions, returns,
    raises, assignments) carries the source line on which it appears;
    the pair [(file, line)] is the event's site identifier, mirroring
    the paper's byte-code instrumentation (Appendix D.2). *)

type pos = { file : string; line : int }

type binop =
  | Add | Sub | Mul | Div | Floordiv | Mod | Pow
  | Eq | Neq | Lt | Le | Gt | Ge
  | And | Or
  | In | Not_in
  | Bxor | Band | Bor | Shl | Shr

type unop = Neg | Not

type expr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | None_lit
  | Var of string
  | Binop of binop * expr * expr * pos
  | Unop of unop * expr
  | Call of expr * expr list * pos
  | Method of expr * string * expr list * pos
      (** [obj.name(args)] — method call on strings/lists/dicts/objects. *)
  | Attr of expr * string
  | Index of expr * expr * pos
  | Slice of expr * expr option * expr option * pos
  | List_lit of expr list
  | Dict_lit of (expr * expr) list
  | Tuple_lit of expr list
  | Cond of expr * expr * expr * pos  (** [a if c else b] *)

type target =
  | Tvar of string
  | Tindex of expr * expr
  | Tattr of expr * string
  | Ttuple of target list

type stmt =
  | Expr_stmt of expr * pos
  | Assign of target * expr * pos
  | Aug_assign of target * binop * expr * pos  (** [x += e] etc. *)
  | If of (expr * pos * block) list * block option
      (** Chain of (condition, site, body) for if/elif, plus else. *)
  | While of expr * pos * block
  | For of target * expr * block * pos
  | Return of expr option * pos
  | Raise of expr option * pos
  | Try of block * handler list * block option
      (** try body, except handlers, finally block. *)
  | Break of pos
  | Continue of pos
  | Pass
  | Func_def of func
  | Class_def of cls
  | Global of string list

and block = stmt list

and handler = {
  h_filter : string option;
      (** exception-kind name such as "ValueError"; [None] catches all.
          A name that is not a known kind acts as a Python-2-style
          catch-all binder instead. *)
  h_bind : string option;  (** variable receiving the exception message *)
  h_body : block;
}

and func = {
  fname : string;
  params : string list;
  defaults : (string * expr) list;  (** trailing params with default values *)
  body : block;
  fpos : pos;
}

and cls = {
  cname : string;
  methods : func list;
  class_body : block;  (** statements other than defs, e.g. class attrs *)
  cpos : pos;
}

type program = { prog_file : string; prog_body : block }

val binop_to_string : binop -> string

val fold_stmts : ('a -> stmt -> 'a) -> 'a -> block -> 'a
(** Fold over every statement, descending into nested function and
    class bodies.  Used by the repository analyzer. *)
